//go:build !amd64 || noasm

package erasure

// Without the assembly kernels — foreign architectures, or the `noasm`
// build tag the CI kernel matrix uses to force this path on amd64 —
// everything runs through the SWAR word paths; the vector geometry
// degenerates to single words and the SIMD dispatch branches are dead
// code.
const (
	wordsPerVec  = 1
	simdMinWords = 1
)

const simdEnabled = false

func mulSliceXorSIMDWords(coef byte, dst, src []uint64)      { panic("erasure: no SIMD") }
func mulDeltaXorSIMDWords(coef byte, dst, old, new []uint64) { panic("erasure: no SIMD") }
func xorSliceSIMDWords(dst, src []uint64)                    { panic("erasure: no SIMD") }
func xorDeltaSIMDWords(dst, old, new []uint64)               { panic("erasure: no SIMD") }
