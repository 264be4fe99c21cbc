//go:build linux

package store

import (
	"os"
	"syscall"
	"unsafe"
)

// EvictPages drops s's pages from this process's mapping
// (madvise(MADV_DONTNEED)) and from the page cache
// (posix_fadvise(POSIX_FADV_DONTNEED), after an fsync so that no page is
// dirty), then returns how many pages of the mapping mincore still
// reports resident: 0 means the next access to any of them is a major
// fault.
func EvictPages(s *Store) (resident int, err error) {
	if !s.mapped || len(s.data) == 0 {
		return 0, nil
	}
	if err := syscall.Madvise(s.data, syscall.MADV_DONTNEED); err != nil {
		return 0, err
	}
	f, err := os.Open(s.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return 0, err
	}
	const fadvDontNeed = 4
	if _, _, e := syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, fadvDontNeed, 0, 0); e != 0 {
		return 0, e
	}
	vec := make([]byte, (len(s.data)+os.Getpagesize()-1)/os.Getpagesize())
	if _, _, e := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&s.data[0])),
		uintptr(len(s.data)), uintptr(unsafe.Pointer(&vec[0]))); e != 0 {
		return 0, e
	}
	for _, v := range vec {
		resident += int(v & 1)
	}
	return resident, nil
}
