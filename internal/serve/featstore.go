package serve

import (
	"fmt"
	"sync"

	"seastar/internal/tensor"
)

// featPageRows is the number of vertex rows per copy-on-write feature
// page: a delta updating one vertex's features copies one page, not the
// whole [N, D] matrix.
const featPageRows = 256

// FeatStore is a paged, immutable vertex-feature matrix. A root store
// aliases the pages of an existing tensor; Apply builds a child that
// shares every clean page with its parent and copies only the pages
// holding updated (or newly added) rows. Like the chunked CSR, pages are
// never mutated after construction.
type FeatStore struct {
	n, d  int
	pages [][]float32 // page p covers rows [p*featPageRows, min((p+1)*featPageRows, n))

	root     *tensor.Tensor // non-nil when pages alias one backing tensor
	flatOnce sync.Once
	flat     *tensor.Tensor
}

// NewFeatStore wraps a dense [N, D] tensor without copying: pages alias
// slices of its backing array, and Flat returns the tensor itself.
func NewFeatStore(t *tensor.Tensor) *FeatStore {
	n, d := t.Rows(), t.Cols()
	fs := &FeatStore{n: n, d: d, root: t, flat: t}
	data := t.Data()
	for lo := 0; lo < n; lo += featPageRows {
		hi := lo + featPageRows
		if hi > n {
			hi = n
		}
		fs.pages = append(fs.pages, data[lo*d:hi*d:hi*d])
	}
	fs.flatOnce.Do(func() {})
	return fs
}

// Dim returns the feature width.
func (fs *FeatStore) Dim() int { return fs.d }

// Row returns vertex v's feature row (a view; callers must not mutate).
func (fs *FeatStore) Row(v int32) []float32 {
	p, r := int(v)/featPageRows, int(v)%featPageRows
	return fs.pages[p][r*fs.d : (r+1)*fs.d]
}

// Gather copies the given rows into a fresh compact [len(idx), D] tensor.
func (fs *FeatStore) Gather(idx []int32) *tensor.Tensor {
	out := tensor.New(len(idx), fs.d)
	for i, v := range idx {
		copy(out.Row(i), fs.Row(v))
	}
	return out
}

// Flat materializes the dense [N, D] tensor, at most once. Root stores
// return their backing tensor with no copy.
func (fs *FeatStore) Flat() *tensor.Tensor {
	fs.flatOnce.Do(func() {
		t := tensor.New(fs.n, fs.d)
		data := t.Data()
		for p, page := range fs.pages {
			copy(data[p*featPageRows*fs.d:], page)
		}
		fs.flat = t
	})
	return fs.flat
}

// Apply builds the child store: updated rows land in freshly copied
// pages, addRows new zero rows extend the tail, and every untouched page
// is shared with the parent by pointer. Returns the child plus how many
// pages were shared versus copied (new tail pages count as copied).
func (fs *FeatStore) Apply(updates []FeatureUpdate, addRows int) (child *FeatStore, shared, copied int, err error) {
	newN := fs.n + addRows
	dirty := map[int]bool{}
	for _, u := range updates {
		if u.Node < 0 || int(u.Node) >= newN {
			return nil, 0, 0, fmt.Errorf("serve: feature update for node %d out of range [0,%d)", u.Node, newN)
		}
		if len(u.Row) != fs.d {
			return nil, 0, 0, fmt.Errorf("serve: feature update for node %d has dim %d, want %d", u.Node, len(u.Row), fs.d)
		}
		dirty[int(u.Node)/featPageRows] = true
	}
	nPages := (newN + featPageRows - 1) / featPageRows
	child = &FeatStore{n: newN, d: fs.d, pages: make([][]float32, nPages)}
	for p := 0; p < nPages; p++ {
		lo := p * featPageRows
		hi := lo + featPageRows
		if hi > newN {
			hi = newN
		}
		rows := hi - lo
		// A parent page is reusable only if it spans the same rows (the
		// old tail page grows when rows are added) and holds no update.
		if p < len(fs.pages) && len(fs.pages[p]) == rows*fs.d && !dirty[p] {
			child.pages[p] = fs.pages[p]
			shared++
			continue
		}
		page := make([]float32, rows*fs.d)
		if p < len(fs.pages) {
			copy(page, fs.pages[p]) // new rows past the copy stay zero
		}
		child.pages[p] = page
		copied++
	}
	for _, u := range updates {
		p, r := int(u.Node)/featPageRows, int(u.Node)%featPageRows
		copy(child.pages[p][r*fs.d:(r+1)*fs.d], u.Row)
	}
	return child, shared, copied, nil
}
