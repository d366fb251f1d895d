package wire

// Tests of the frame-body pool: bodies are filed by size class, a class
// serves every size in it, and bodies above the largest class are never
// kept.

import (
	"testing"
	"unsafe"
)

// drain empties class c's pool (on this P, and what Get steals from others).
func drain(c int) {
	for bodyPools[c-minClass].Get() != nil {
	}
}

// TestBodyPoolServesItsClass: getBuf(n) of any size in class c takes a body
// of capacity 1<<c, and a recycled body comes back for any size in its
// class, the smallest and the largest included.
func TestBodyPoolServesItsClass(t *testing.T) {
	for _, c := range []int{minClass, minClass + 1, 12, 17, maxClass} {
		lo := 1<<(c-1) + 1
		if c == minClass {
			lo = 1
		}
		for _, n := range []int{lo, (lo + 1<<c) / 2, 1 << c} {
			if got := sizeClass(n); got != c {
				t.Fatalf("sizeClass(%d) = %d, want %d", n, got, c)
			}
			drain(c)
			b := getBuf(n)
			if len(b) != n || cap(b) != 1<<c {
				t.Fatalf("getBuf(%d) on an empty pool: len %d cap %d, want len %d cap %d", n, len(b), cap(b), n, 1<<c)
			}
			// A goroutine that changes Ps between Recycle and getBuf — or
			// the race detector, which drops a quarter of sync.Pool's Puts —
			// can miss the body once; it cannot miss it every time.
			reused := false
			for try := 0; try < 20 && !reused; try++ {
				other := getBuf(1 << c) // a body of the class, recycled or not
				drain(c)
				Recycle(other)
				b = getBuf(n)
				reused = unsafe.SliceData(b) == unsafe.SliceData(other)
			}
			if !reused {
				t.Fatalf("class %d: a recycled body never served getBuf(%d)", c, n)
			}
		}
	}
}

// TestBodyPoolDropsOversizedBodies: a body above maxPooled is allocated to
// its exact size and Recycle does not keep it; a body whose capacity is not
// a power of two is filed under the class it covers.
func TestBodyPoolDropsOversizedBodies(t *testing.T) {
	for _, n := range []int{maxPooled + 1, 4 << 20} {
		b := getBuf(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("getBuf(%d): len %d cap %d, want both %d", n, len(b), cap(b), n)
		}
		Recycle(b)
		for c := minClass; c <= maxClass; c++ {
			for v := bodyPools[c-minClass].Get(); v != nil; v = bodyPools[c-minClass].Get() {
				if kept := *v.(*[]byte); unsafe.SliceData(kept) == unsafe.SliceData(b) {
					t.Fatalf("a %d-byte body was kept in class %d", n, c)
				}
			}
		}
	}
	drain(12)
	odd := make([]byte, 5000) // covers class 12 (4096), not class 13
	Recycle(odd)
	if b := getBuf(8000); unsafe.SliceData(b) == unsafe.SliceData(odd) {
		t.Fatal("a 5000-byte body served an 8000-byte frame")
	}
}
