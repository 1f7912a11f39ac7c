//go:build linux && !race

package machine

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeapBytes is the smallest slab mapped outside the Go heap, the
// smallest big slab. The race detector does not see such memory, so race
// builds use arena_heap.go.
const offHeapBytes = 8 << bigClass

// mapSlab returns a zeroed slab of words words: anonymous memory for a
// big slab, a heap slice for a small one. A failed mapping panics: the
// array constructors return no error, and inside a Run body the panic
// fails the run, which returns it as a *ProcPanic.
func mapSlab(words int) []uint64 {
	if words*8 < offHeapBytes {
		return make([]uint64, words)
	}
	b, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("machine: mapping a %d-byte slab: %v", words*8, err))
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), words)
}

// unmapSlab gives a slab mapSlab returned back to the host.
func unmapSlab(s []uint64) {
	if len(s)*8 < offHeapBytes {
		return
	}
	if err := syscall.Munmap(asBytes(s)); err != nil {
		panic(fmt.Sprintf("machine: unmapping a %d-byte slab: %v", len(s)*8, err))
	}
}

// unmapPiece gives the pages of one piece of a slab back to the host
// while the rest of the slab stays in use: munmap takes only the whole
// mapping syscall.Mmap made, but madvise(MADV_DONTNEED) frees any whole
// pages of it. The range stays reserved, and unmapSlab unmaps it with
// the slab's last piece. A piece of a heap slab, or one smaller than a
// page, goes back with its slab.
func unmapPiece(slab, s []uint64) {
	if len(slab)*8 < offHeapBytes || len(s)*8 < syscall.Getpagesize() {
		return
	}
	if err := syscall.Madvise(asBytes(s), syscall.MADV_DONTNEED); err != nil {
		panic(fmt.Sprintf("machine: giving back a %d-byte slab piece: %v", len(s)*8, err))
	}
}

func asBytes(s []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}
