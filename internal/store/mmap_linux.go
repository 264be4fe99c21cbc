//go:build linux

package store

import (
	"bufio"
	"os"
	"strconv"
	"syscall"
)

// mmapFile maps the file read-only. The kernel pages data in on demand;
// Open's section validation guarantees all accesses through the Store
// stay inside the mapping, so the only fault mode left is the file
// shrinking underneath a live mapping (an operator error the format
// doc calls out: store files are immutable once written).
func mmapFile(f *os.File, size int64) ([]byte, bool, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

func unmapFile(data []byte, mapped bool) error {
	if !mapped {
		return nil
	}
	return syscall.Munmap(data)
}

// MajorFaults returns the process's cumulative major page-fault count
// (majflt from /proc/self/stat), used by the pipeline to attribute
// I/O stall time per stage. Returns 0 on platforms without /proc.
func MajorFaults() int64 {
	f, err := os.Open("/proc/self/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	r := bufio.NewReader(f)
	line, err := r.ReadString('\n')
	if err != nil && line == "" {
		return 0
	}
	// Fields after the parenthesized comm (which may itself contain
	// spaces): state ppid pgrp session tty tpgid flags minflt cminflt
	// majflt — majflt is the 10th token after ')'.
	i := -1
	for j := len(line) - 1; j >= 0; j-- {
		if line[j] == ')' {
			i = j
			break
		}
	}
	if i < 0 {
		return 0
	}
	rest := line[i+1:]
	field := 0
	start := -1
	for k := 0; k <= len(rest); k++ {
		if k < len(rest) && rest[k] != ' ' && rest[k] != '\n' {
			if start < 0 {
				start = k
			}
			continue
		}
		if start >= 0 {
			field++
			if field == 10 {
				v, _ := strconv.ParseInt(rest[start:k], 10, 64)
				return v
			}
			start = -1
		}
	}
	return 0
}
