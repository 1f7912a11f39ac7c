//go:build unix && !race

package machine

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeapBytes is the smallest slab mapped outside the Go heap. The race
// detector does not see such memory, so race builds use arena_heap.go.
const offHeapBytes = 64 << 10

// mapSlab returns a zeroed slab of words words: anonymous memory from 64
// KiB up, a heap slice below. A failed mapping panics: the array
// constructors return no error, and inside a Run body the panic fails
// the run, which returns it as a *ProcPanic.
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
	if err := syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)); err != nil {
		panic(fmt.Sprintf("machine: unmapping a %d-byte slab: %v", len(s)*8, err))
	}
}
