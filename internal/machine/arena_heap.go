//go:build !unix || race

package machine

// mapSlab returns a zeroed slab of words words. Race builds keep every
// slab on the Go heap, where the detector sees accesses to Array.Data;
// other builds lack arena_mmap.go's system calls.
func mapSlab(words int) []uint64 { return make([]uint64, words) }

// unmapSlab drops the pool's reference; the collector frees the slab.
func unmapSlab([]uint64) {}
