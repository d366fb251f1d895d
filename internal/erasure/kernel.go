package erasure

import (
	"runtime"
	"sync"
)

// KernelPath names the kernel implementation selected at init: "avx2" when
// the SIMD path is live, "swar" for the portable word-parallel fallback
// (foreign architecture, or the `noasm` build tag). Tests and CI logs use
// it to prove which leg of the kernel matrix ran.
func KernelPath() string {
	if simdEnabled {
		return "avx2"
	}
	return "swar"
}

// This file is the word-parallel GF(256) kernel layer. All slice arithmetic
// of the Reed–Solomon code funnels through the kernels below, which
// process eight (or, with SIMD, thirty-two) field elements per step instead
// of one byte at a time through the log/exp tables:
//
//   - per-coefficient split-nibble tables decompose every product as
//     c·b = c·(b&15) ^ c·(b>>4<<4), turning multiplication into two tiny
//     table lookups — the exact form byte-shuffle SIMD consumes 32 lanes at
//     a time (kernel_amd64.s);
//   - the portable fallback is a SWAR bit-broadcast kernel: eight uint64
//     mask-multiply steps compute all eight byte lanes of a word at once,
//     with no table loads in the inner loop;
//   - coefficient 1 — every coefficient of the first parity row — skips
//     the multiply and runs the plain XOR kernels;
//   - large buffers shard across runtime.NumCPU() goroutines.

// mulTabLo[c][n] = c·n and mulTabHi[c][n] = c·(n<<4): the split-nibble
// tables. mulTabLo/Hi[c] are the 16-byte shuffle tables the SIMD kernel
// broadcasts into vector registers.
var mulTabLo, mulTabHi [256][16]byte

// mulXT[c][i] = c·2^i broadcast is the doubling ladder the SWAR fallback
// uses: the product of c with a byte b is the XOR of c·2^i over b's set
// bits, evaluated for all eight byte lanes of a word at once.
var mulXT [256][8]uint64

func init() {
	// Built with the table-free peasant multiply so this init does not
	// depend on the log/exp tables of gf256.go being populated first.
	for c := 0; c < 256; c++ {
		for n := 0; n < 16; n++ {
			mulTabLo[c][n] = gfMulBitwise(byte(c), byte(n))
			mulTabHi[c][n] = gfMulBitwise(byte(c), byte(n<<4))
		}
		d := byte(c)
		for i := 0; i < 8; i++ {
			mulXT[c][i] = uint64(d)
			hi := d & 0x80
			d <<= 1
			if hi != 0 {
				d ^= gfPoly & 0xff
			}
		}
	}
}

// gfMulBitwise is the Russian-peasant carry-less multiply mod 0x11d, used
// only to seed the tables.
func gfMulBitwise(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= gfPoly & 0xff
		}
		b >>= 1
	}
	return p
}

// lsbLanes selects bit 0 of each of the eight byte lanes of a word.
const lsbLanes = 0x0101010101010101

// mulWordXT multiplies the eight byte lanes of w by the coefficient whose
// doubling ladder is xt: lane-parallel Russian-peasant multiplication.
// Each mask isolates one bit position of every lane; multiplying the 0/1
// lane mask by the byte c·2^i broadcasts that partial product into exactly
// the lanes whose bit is set (no cross-lane carries, since 1·(c·2^i) < 256).
func mulWordXT(xt *[8]uint64, w uint64) uint64 {
	r := (w & lsbLanes) * xt[0]
	r ^= ((w >> 1) & lsbLanes) * xt[1]
	r ^= ((w >> 2) & lsbLanes) * xt[2]
	r ^= ((w >> 3) & lsbLanes) * xt[3]
	r ^= ((w >> 4) & lsbLanes) * xt[4]
	r ^= ((w >> 5) & lsbLanes) * xt[5]
	r ^= ((w >> 6) & lsbLanes) * xt[6]
	r ^= ((w >> 7) & lsbLanes) * xt[7]
	return r
}

// MulSliceXorWords folds coef·src into dst lane-wise: dst[i] ^= coef·src[i]
// for every byte lane. len(src) must not exceed len(dst).
func MulSliceXorWords(coef byte, dst, src []uint64) {
	switch coef {
	case 0:
		return
	case 1:
		XorWords(dst, src)
		return
	}
	if simdEnabled && len(src) >= simdMinWords {
		n := len(src) &^ (wordsPerVec - 1)
		mulSliceXorSIMDWords(coef, dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	xt := &mulXT[coef]
	for i, w := range src {
		dst[i] ^= mulWordXT(xt, w)
	}
}

// MulDeltaXorWords folds coef·(old^new) into dst without materializing the
// delta: the fused form of an incremental parity update.
func MulDeltaXorWords(coef byte, dst, old, new []uint64) {
	switch coef {
	case 0:
		return
	case 1:
		XorDeltaWords(dst, old, new)
		return
	}
	if simdEnabled && len(old) >= simdMinWords {
		n := len(old) &^ (wordsPerVec - 1)
		mulDeltaXorSIMDWords(coef, dst[:n], old[:n], new[:n])
		dst, old, new = dst[n:], old[n:], new[n:]
	}
	xt := &mulXT[coef]
	for i := range old {
		if d := old[i] ^ new[i]; d != 0 {
			dst[i] ^= mulWordXT(xt, d)
		}
	}
}

// XorWords xors src into dst: dst[i] ^= src[i].
func XorWords(dst, src []uint64) {
	if simdEnabled && len(src) >= simdMinWords {
		n := len(src) &^ (wordsPerVec - 1)
		xorSliceSIMDWords(dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	for i, w := range src {
		dst[i] ^= w
	}
}

// XorDeltaWords folds a change into an XOR parity: dst[i] ^= old[i]^new[i].
func XorDeltaWords(dst, old, new []uint64) {
	if simdEnabled && len(old) >= simdMinWords {
		n := len(old) &^ (wordsPerVec - 1)
		xorDeltaSIMDWords(dst[:n], old[:n], new[:n])
		dst, old, new = dst[n:], old[n:], new[n:]
	}
	for i := range old {
		dst[i] ^= old[i] ^ new[i]
	}
}

// ---- parallel sharding -----------------------------------------------------

// parallelMinWords is the buffer size below which sharding is not worth
// the goroutine handoffs; the kernels chew through 128 KiB in ~10 µs.
const parallelMinWords = 16 << 10

// kernelWorkers caps the fan-out; beyond ~8 shards the kernels are
// memory-bandwidth-bound and extra goroutines only add scheduling noise.
var kernelWorkers = func() int {
	n := runtime.NumCPU()
	if n > 8 {
		n = 8
	}
	return n
}()

// sharded reports whether pshardWords splits a loop of n words across
// goroutines.
func sharded(n int) bool { return n >= parallelMinWords && kernelWorkers >= 2 }

// pshardWords splits [0,n) into per-worker spans whose boundaries are
// multiples of the vector width and runs f on each span concurrently.
// Small n runs inline.
func pshardWords(n int, f func(lo, hi int)) {
	if !sharded(n) {
		f(0, n)
		return
	}
	chunk := (n/kernelWorkers + wordsPerVec) &^ (wordsPerVec - 1)
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
