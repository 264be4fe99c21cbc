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
//
// Each scored row takes one exp per logit: the forward keeps the row's
// softmax, and the backward turns it into the gradient
// scale·(softmax − onehot) in place.
func (e *Engine) CrossEntropyMasked(logits *Variable, labels []int, mask []bool) *Variable {
	n := logits.Value.Rows()
	if len(labels) != n || mask != nil && len(mask) != n {
		panic(fmt.Sprintf("nn: cross entropy over %d rows with %d labels, %d mask", n, len(labels), len(mask)))
	}
	// A pooled tensor comes zeroed, so the rows outside the mask hold a
	// zero gradient.
	p := e.like(logits.Value)
	count := 0
	var loss float64
	for i := 0; i < n; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		count++
		v, pr := logits.Value.Row(i), p.Row(i)
		mx := float32(math.Inf(-1))
		for _, x := range v {
			if x > mx {
				mx = x
			}
		}
		var sum float64
		for j, x := range v {
			ex := math.Exp(float64(x - mx))
			pr[j] = float32(ex)
			sum += ex
		}
		lse := float32(math.Log(sum)) + mx
		loss -= float64(v[labels[i]] - lse)
		inv := float32(1 / sum)
		for j := range pr {
			pr[j] *= inv
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
		for i := 0; i < n; i++ {
			if mask != nil && !mask[i] {
				continue
			}
			pr := p.Row(i)
			for j := range pr {
				pr[j] *= scale
			}
			pr[labels[i]] -= scale
		}
		logits.accumulate(p)
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
