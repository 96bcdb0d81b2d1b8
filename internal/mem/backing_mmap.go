//go:build (linux || darwin) && !race

package mem

import "syscall"

// mapBacking returns n bytes of demand-zero memory from an anonymous private
// mapping, the way ART maps its heap (§4.1): the kernel hands out zeroed
// pages on first touch, so a mapping costs nothing for the bytes it never
// uses. n is a positive multiple of the page size.
func mapBacking(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}

// unmapBacking returns memory from mapBacking to the kernel. Any slice into
// it faults on its next access.
func unmapBacking(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("mem: munmap: " + err.Error())
	}
}
