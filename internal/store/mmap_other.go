//go:build !linux

package store

import (
	"io"
	"os"
)

// mmapFile on non-linux platforms reads the whole file into the heap —
// functionally identical (the Store's accessors only need a byte
// slice), just without the out-of-core property. The backing buffer is
// allocated as []int64 so section views keep 8-byte alignment.
func mmapFile(f *os.File, size int64) ([]byte, bool, error) {
	buf := make([]int64, (size+7)/8)
	b := i64Bytes(buf)[:size]
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, false, err
	}
	return b, false, nil
}

func unmapFile(data []byte, mapped bool) error { return nil }

// MajorFaults returns 0 on platforms without /proc/self/stat.
func MajorFaults() int64 { return 0 }
