package erasure

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// refMul is the trusted scalar reference the kernels are checked against.
func refMul(coef, b byte) byte { return gfMul(coef, b) }

// refMulWord multiplies the eight byte lanes of w by coef one lane at a
// time through refMul.
func refMulWord(coef byte, w uint64) uint64 {
	var out uint64
	for lane := 0; lane < 64; lane += 8 {
		out |= uint64(refMul(coef, byte(w>>lane))) << lane
	}
	return out
}

func randWords(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

func wordsToBytesLE(w []uint64) []byte {
	out := make([]byte, 8*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint64(out[8*i:], v)
	}
	return out
}

// TestTablesMatchReference pins every table entry to the log/exp field
// arithmetic of gf256.go (the tables are built independently via the
// peasant multiply, so this cross-checks the two constructions).
func TestTablesMatchReference(t *testing.T) {
	for c := 0; c < 256; c++ {
		for b := 0; b < 256; b++ {
			want := refMul(byte(c), byte(b))
			if got := mulTabLo[c][b&15] ^ mulTabHi[c][b>>4]; got != want {
				t.Fatalf("nibble tables for %d·%d = %d, want %d", c, b, got, want)
			}
		}
	}
}

// TestMulSliceXorWordsAllCoefficients checks the word kernel (SIMD path
// plus SWAR tail) against the scalar reference for every coefficient, on a
// length that exercises both the vector body and the tail.
func TestMulSliceXorWordsAllCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := randWords(rng, 67) // not a multiple of the vector width
	for c := 0; c < 256; c++ {
		dst := randWords(rng, len(src))
		want := make([]uint64, len(src))
		copy(want, dst)
		wb := wordsToBytesLE(want)
		sb := wordsToBytesLE(src)
		for i := range wb {
			wb[i] ^= refMul(byte(c), sb[i])
		}
		MulSliceXorWords(byte(c), dst, src)
		if !bytes.Equal(wordsToBytesLE(dst), wb) {
			t.Fatalf("MulSliceXorWords wrong for coefficient %d", c)
		}
	}
}

// TestMulDeltaXorWordsMatchesExplicitDelta checks the fused delta kernel
// against computing the delta explicitly.
func TestMulDeltaXorWordsMatchesExplicitDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 3, 4, 7, 64, 515} {
		old := randWords(rng, n)
		new := randWords(rng, n)
		for _, c := range []byte{0, 1, 2, 0x1d, 0x8e, 255} {
			got := randWords(rng, n)
			want := make([]uint64, n)
			copy(want, got)
			delta := make([]uint64, n)
			for i := range delta {
				delta[i] = old[i] ^ new[i]
			}
			MulSliceXorWords(c, want, delta)
			MulDeltaXorWords(c, got, old, new)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d coef=%d word %d: got %x want %x", n, c, i, got[i], want[i])
				}
			}
		}
	}
}

// TestKernelTailHandling checks the word kernels on every length 0..67
// words, so the vector body and every word tail are crossed, with a
// multiplying coefficient and with coefficient 1 (the XOR dispatch).
func TestKernelTailHandling(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= 67; n++ {
		src := randWords(rng, n)
		for _, c := range []byte{0xa7, 1} {
			dst := randWords(rng, n)
			want := make([]uint64, n)
			for i := range want {
				want[i] = dst[i] ^ refMulWord(c, src[i])
			}
			MulSliceXorWords(c, dst, src)
			if !slices.Equal(dst, want) {
				t.Fatalf("length %d coef %d: word kernel wrong", n, c)
			}
		}
	}
}

// TestEncodeWordsMatchesEncode pins the kernel encoder to a scalar
// encoder that multiplies one byte lane at a time through refMul, so the
// reference shares no table with the kernels.
func TestEncodeWordsMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const k, m, n = 5, 3, 97
	rs, err := NewRS(k, m)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rng, k, n)
	pw, err := rs.EncodeWords(data)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < m; p++ {
		want := make([]uint64, n)
		for j := 0; j < k; j++ {
			for w := range want {
				want[w] ^= refMulWord(rs.coef(p, j), data[j][w])
			}
		}
		if !slices.Equal(pw[p], want) {
			t.Fatalf("parity %d: kernel and scalar encoders disagree", p)
		}
	}
}

// TestReconstructWordsRoundTrip erases up to m word shards in every
// pattern and verifies bit-identical recovery.
func TestReconstructWordsRoundTrip(t *testing.T) {
	const k, m, n = 4, 2, 33
	rs, err := NewRS(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	data := make([][]uint64, k)
	for i := range data {
		data[i] = randWords(rng, n)
	}
	parity, err := rs.EncodeWords(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]uint64{}, data...), parity...)
	total := k + m
	for a := 0; a < total; a++ {
		for b := a; b < total; b++ {
			shards := make([][]uint64, total)
			copy(shards, full)
			shards[a] = nil
			shards[b] = nil
			if err := rs.ReconstructWords(shards); err != nil {
				t.Fatalf("erase (%d,%d): %v", a, b, err)
			}
			for i := range shards {
				for j := range shards[i] {
					if shards[i][j] != full[i][j] {
						t.Fatalf("erase (%d,%d): shard %d word %d wrong", a, b, i, j)
					}
				}
			}
		}
	}
}

// TestPropertyIncrementalParityEqualsEncode drives a random sequence of
// member updates through the incremental parity paths
// (UpdateParityDeltaWords / XorDeltaWords) and checks the running parity
// always equals a from-scratch encode of the current member states — the
// §6.2 incremental checksum integration must be exact, and the first
// parity shard must stay the members' XOR.
func TestPropertyIncrementalParityEqualsEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(6)
		m := 1 + rng.Intn(3)
		n := 1 + rng.Intn(200)
		if trial == 0 {
			n = parallelMinWords + 3 // long enough to shard across goroutines
		}
		rs, err := NewRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		members := make([][]uint64, k)
		for i := range members {
			members[i] = make([]uint64, n) // all-zero initial state
		}
		parity := make([][]uint64, m)
		for i := range parity {
			parity[i] = make([]uint64, n)
		}
		xorParity := make([]uint64, n)
		for step := 0; step < 30; step++ {
			j := rng.Intn(k)
			// Random partial update of member j.
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			old := make([]uint64, n)
			copy(old, members[j])
			for w := lo; w < hi; w++ {
				members[j][w] = rng.Uint64()
			}
			for i := 0; i < m; i++ {
				if err := rs.UpdateParityDeltaWords(parity[i], i, j, old, members[j]); err != nil {
					t.Fatal(err)
				}
			}
			XorDeltaWords(xorParity, old, members[j])
		}
		fresh, err := rs.EncodeWords(members)
		if err != nil {
			t.Fatal(err)
		}
		for i := range parity {
			for w := range parity[i] {
				if parity[i][w] != fresh[i][w] {
					t.Fatalf("trial %d: RS parity %d diverged at word %d", trial, i, w)
				}
			}
		}
		if freshXor := xorOf(members); !slices.Equal(xorParity, freshXor) || !slices.Equal(fresh[0], freshXor) {
			t.Fatalf("trial %d: XOR parity diverged", trial)
		}
	}
}

// TestKernelPathSelection pins the kernel-matrix contract: KernelPath
// reflects the dispatcher state, and under the `noasm` build tag the SWAR
// fallback must be the live path. The CI kernel-matrix job greps this log
// line to prove which leg actually ran.
func TestKernelPathSelection(t *testing.T) {
	t.Logf("erasure kernel path: %s", KernelPath())
	if simdEnabled && KernelPath() != "avx2" {
		t.Fatalf("SIMD enabled but KernelPath() = %q", KernelPath())
	}
	if !simdEnabled && KernelPath() != "swar" {
		t.Fatalf("SIMD disabled but KernelPath() = %q", KernelPath())
	}
}
