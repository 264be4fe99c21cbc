package nn

import (
	"fmt"
	"math"

	"seastar/internal/tensor"
)

// CrossEntropyMasked computes the mean negative log-likelihood of labels
// over the rows where mask is true (the train split in node
// classification), or over every row when mask is nil (a block's seeds).
// logits has shape [N, C]; labels has length N. The returned variable is
// scalar. Rows outside the mask are never read: their values, NaN and Inf
// included, reach neither the loss nor the gradient.
func (e *Engine) CrossEntropyMasked(logits *Variable, labels []int, mask []bool) *Variable {
	n := logits.Value.Rows()
	if len(labels) != n || mask != nil && len(mask) != n {
		panic(fmt.Sprintf("nn: cross entropy over %d rows with %d labels, %d mask", n, len(labels), len(mask)))
	}
	logp := tensor.LogSoftmaxRows(logits.Value, mask, e.like(logits.Value))
	count := 0
	var loss float64
	for i := 0; i < n; i++ {
		if mask == nil || mask[i] {
			count++
			loss -= float64(logp.At(i, labels[i]))
		}
	}
	if count == 0 {
		panic("nn: cross entropy mask selects no rows")
	}
	loss /= float64(count)
	// Forward cost: one pass over the logits.
	e.chargeEW("xent", logits.Value.Size(), 1)
	out := tensor.Scalar(float32(loss))
	return e.node("xent", out, []*Variable{logits}, func(g *tensor.Tensor) {
		scale := g.At1(0) / float32(count)
		d := e.like(logits.Value)
		for i := 0; i < n; i++ {
			if mask != nil && !mask[i] {
				continue
			}
			lr, dr := logp.Row(i), d.Row(i)
			for j := range dr {
				p := expf(lr[j])
				dr[j] = scale * p
			}
			dr[labels[i]] -= scale
		}
		logits.accumulate(d)
	})
}

// Accuracy returns the fraction of masked rows where the argmax of logits
// equals the label.
func Accuracy(logits *tensor.Tensor, labels []int, mask []bool) float64 {
	pred := tensor.ArgMaxRows(logits)
	correct, total := 0, 0
	for i, p := range pred {
		if mask[i] {
			total++
			if p == labels[i] {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

func expf(x float32) float32 {
	// exp via float64 for accuracy; hot only in the loss which is O(N·C).
	return float32(math.Exp(float64(x)))
}
