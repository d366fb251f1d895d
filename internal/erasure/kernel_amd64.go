//go:build amd64 && !noasm

package erasure

import "unsafe"

// Vector geometry of the AVX2 kernels in kernel_amd64.s.
const (
	wordsPerVec  = 4
	simdMinWords = wordsPerVec
)

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func gfMulXorAVX2(lo, hi *byte, dst, src unsafe.Pointer, n int)

//go:noescape
func gfMulDeltaXorAVX2(lo, hi *byte, dst, old, new unsafe.Pointer, n int)

//go:noescape
func xorAVX2(dst, src unsafe.Pointer, n int)

//go:noescape
func xorDeltaAVX2(dst, old, new unsafe.Pointer, n int)

// simdEnabled reports AVX2 with OS-saved YMM state (checked once at init).
var simdEnabled = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&0x6 != 0x6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// The SIMD wrappers require len > 0 and a multiple of the vector size;
// kernel.go's dispatchers guarantee that.

func mulSliceXorSIMDWords(coef byte, dst, src []uint64) {
	gfMulXorAVX2(&mulTabLo[coef][0], &mulTabHi[coef][0],
		unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0]), len(src)*8)
}

func mulDeltaXorSIMDWords(coef byte, dst, old, new []uint64) {
	gfMulDeltaXorAVX2(&mulTabLo[coef][0], &mulTabHi[coef][0],
		unsafe.Pointer(&dst[0]), unsafe.Pointer(&old[0]), unsafe.Pointer(&new[0]), len(old)*8)
}

func xorSliceSIMDWords(dst, src []uint64) {
	xorAVX2(unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0]), len(src)*8)
}

func xorDeltaSIMDWords(dst, old, new []uint64) {
	xorDeltaAVX2(unsafe.Pointer(&dst[0]), unsafe.Pointer(&old[0]), unsafe.Pointer(&new[0]), len(old)*8)
}
