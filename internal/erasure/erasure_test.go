package erasure

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGFAxioms(t *testing.T) {
	// Field sanity on a pseudo-random sample: commutativity,
	// associativity, distributivity, inverses.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("mul not commutative for %d,%d", a, b)
		}
		if gfMul(gfMul(a, b), c) != gfMul(a, gfMul(b, c)) {
			t.Fatalf("mul not associative for %d,%d,%d", a, b, c)
		}
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("mul not distributive for %d,%d,%d", a, b, c)
		}
		if a != 0 {
			if gfMul(a, gfInv(a)) != 1 {
				t.Fatalf("inverse broken for %d", a)
			}
			if gfDiv(gfMul(a, b), a) != b {
				t.Fatalf("div broken for %d,%d", a, b)
			}
		}
		if gfMul(a, 1) != a || gfMul(a, 0) != 0 {
			t.Fatalf("identity/zero broken for %d", a)
		}
	}
}

func TestGFExpPow(t *testing.T) {
	for a := 1; a < 256; a++ {
		if gfExpPow(byte(a), 0) != 1 {
			t.Fatalf("a^0 != 1 for %d", a)
		}
		if gfExpPow(byte(a), 1) != byte(a) {
			t.Fatalf("a^1 != a for %d", a)
		}
		want := gfMul(byte(a), byte(a))
		if gfExpPow(byte(a), 2) != want {
			t.Fatalf("a^2 mismatch for %d", a)
		}
	}
	if gfExpPow(0, 0) != 1 || gfExpPow(0, 3) != 0 {
		t.Fatal("0 powers wrong")
	}
}

func TestMatInvert(t *testing.T) {
	m := [][]byte{{1, 2}, {3, 4}}
	inv, ok := matInvert([][]byte{{1, 2}, {3, 4}})
	if !ok {
		t.Fatal("invertible matrix reported singular")
	}
	prod := matMul(m, inv)
	for i := range prod {
		for j := range prod[i] {
			want := byte(0)
			if i == j {
				want = 1
			}
			if prod[i][j] != want {
				t.Fatalf("m * inv(m) = %v, not identity", prod)
			}
		}
	}
	// Singular matrix (duplicate rows).
	if _, ok := matInvert([][]byte{{1, 2}, {1, 2}}); ok {
		t.Fatal("singular matrix inverted")
	}
}

func randShards(rng *rand.Rand, k, n int) [][]uint64 {
	out := make([][]uint64, k)
	for i := range out {
		out[i] = randWords(rng, n)
	}
	return out
}

// xorOf is the paper's checksum, computed with the plain ^ operator: the
// independent reference every m = 1 parity is held to.
func xorOf(shards [][]uint64) []uint64 {
	out := make([]uint64, len(shards[0]))
	for _, s := range shards {
		for i, w := range s {
			out[i] ^= w
		}
	}
	return out
}

// TestGeneratorFirstRowOnesAndMDS checks the normalized generator
// exhaustively for every k ≤ 10 and m ≤ 5: the first parity row is all
// ones (XOR), and every k x k submatrix inverts, so any k surviving shards
// decode (the code is MDS).
func TestGeneratorFirstRowOnesAndMDS(t *testing.T) {
	for k := 1; k <= 10; k++ {
		for m := 1; m <= 5; m++ {
			rs, err := NewRS(k, m)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < k; j++ {
				if c := rs.coef(0, j); c != 1 {
					t.Fatalf("RS(%d,%d): coef(0,%d) = %d, want 1", k, m, j, c)
				}
			}
			rows := make([]int, k)
			var choose func(next, depth int)
			choose = func(next, depth int) {
				if depth == k {
					sub := make([][]byte, k)
					for i, r := range rows {
						sub[i] = rs.gen[r]
					}
					if _, ok := matInvert(sub); !ok {
						t.Fatalf("RS(%d,%d): rows %v of the generator are singular", k, m, rows)
					}
					return
				}
				for r := next; r <= k+m-(k-depth); r++ {
					rows[depth] = r
					choose(r+1, depth+1)
				}
			}
			choose(0, 0)
		}
	}
}

// TestXORRoundTrip: RS(k, 1) parity is the XOR of the shards, and any
// single lost shard — data or parity — comes back bit-identical.
func TestXORRoundTrip(t *testing.T) {
	const k, n = 5, 41
	rs, err := NewRS(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	data := randShards(rng, k, n)
	parity, err := rs.EncodeWords(data)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(parity[0], xorOf(data)) {
		t.Fatal("RS(5,1) parity is not the XOR of the shards")
	}
	full := append(append([][]uint64{}, data...), parity...)
	for lost := range full {
		damaged := slices.Clone(full)
		damaged[lost] = nil
		if err := rs.ReconstructWords(damaged); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(damaged[lost], full[lost]) {
			t.Fatalf("reconstruction of shard %d wrong", lost)
		}
	}
}

func TestXORErrors(t *testing.T) {
	rs, err := NewRS(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.EncodeWords([][]uint64{{1}}); err == nil {
		t.Error("accepted too few shards")
	}
	if _, err := rs.EncodeWords([][]uint64{{}, {}}); err == nil {
		t.Error("accepted empty shards")
	}
	if _, err := rs.EncodeWords([][]uint64{{1, 2}, {3}}); err == nil {
		t.Error("accepted ragged shards")
	}
	if err := rs.ReconstructWords([][]uint64{nil, nil, {3}}); err == nil {
		t.Error("accepted two missing shards")
	}
	if err := rs.ReconstructWords([][]uint64{nil, {1, 2}, {3}}); err == nil {
		t.Error("accepted ragged survivors")
	}
	intact := [][]uint64{{1}, {2}, {3}}
	if err := rs.ReconstructWords(intact); err != nil || intact[0][0] != 1 || intact[2][0] != 3 {
		t.Errorf("reconstruction with nothing missing: err %v, shards %v", err, intact)
	}
	if err := rs.UpdateParityWords([]uint64{1, 2}, 0, 0, []uint64{1}); err == nil {
		t.Error("accepted mismatched update")
	}
	if err := rs.AddShardWords([]uint64{1}, 1, 0, []uint64{1}); err == nil {
		t.Error("accepted parity index out of range")
	}
	if err := rs.UpdateParityDeltaWords([]uint64{1}, 0, 2, []uint64{1}, []uint64{2}); err == nil {
		t.Error("accepted data index out of range")
	}
}

func TestXORIncrementalUpdate(t *testing.T) {
	// Folding out an old shard and folding in a new one must equal a fresh
	// encode — the demand-checkpoint integration path of §6.2 — and so
	// must folding the delta old^new once.
	const k, n = 4, 32
	rs, err := NewRS(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	shards := randShards(rng, k, n)
	parity, err := rs.EncodeWords(shards)
	if err != nil {
		t.Fatal(err)
	}
	viaDelta := slices.Clone(parity[0])
	newShard := randWords(rng, n)
	if err := rs.AddShardWords(parity[0], 0, 2, shards[2]); err != nil { // remove old
		t.Fatal(err)
	}
	if err := rs.AddShardWords(parity[0], 0, 2, newShard); err != nil { // add new
		t.Fatal(err)
	}
	delta := make([]uint64, n)
	for i := range delta {
		delta[i] = shards[2][i] ^ newShard[i]
	}
	if err := rs.UpdateParityWords(viaDelta, 0, 2, delta); err != nil {
		t.Fatal(err)
	}
	shards[2] = newShard
	want := xorOf(shards)
	if !slices.Equal(parity[0], want) {
		t.Fatal("fold-out/fold-in parity differs from the XOR of the new shards")
	}
	if !slices.Equal(viaDelta, want) {
		t.Fatal("delta-folded parity differs from the XOR of the new shards")
	}
}

func TestXORProperty(t *testing.T) {
	// Property: RS(k, 1) parity = XOR, and erase(1) ∘ reconstruct = identity.
	prop := func(kRaw, nRaw, lostRaw uint8, seed int64) bool {
		k := int(kRaw)%16 + 1
		n := int(nRaw)%64 + 1
		rs, err := NewRS(k, 1)
		if err != nil {
			return false
		}
		data := randShards(rand.New(rand.NewSource(seed)), k, n)
		parity, err := rs.EncodeWords(data)
		if err != nil || !slices.Equal(parity[0], xorOf(data)) {
			return false
		}
		full := append(data, parity[0])
		lost := int(lostRaw) % len(full)
		damaged := slices.Clone(full)
		damaged[lost] = nil
		if err := rs.ReconstructWords(damaged); err != nil {
			return false
		}
		return slices.Equal(damaged[lost], full[lost])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRSRoundTripAllErasurePatterns(t *testing.T) {
	const k, m, n = 6, 3, 48
	rs, err := NewRS(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	data := randShards(rng, k, n)
	parity, err := rs.EncodeWords(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]uint64{}, data...), parity...)
	// Try every pattern of up to m erasures.
	var patterns [][]int
	total := k + m
	for a := 0; a < total; a++ {
		patterns = append(patterns, []int{a})
		for b := a + 1; b < total; b++ {
			patterns = append(patterns, []int{a, b})
			for c := b + 1; c < total; c++ {
				patterns = append(patterns, []int{a, b, c})
			}
		}
	}
	for _, pat := range patterns {
		shards := slices.Clone(full)
		for _, i := range pat {
			shards[i] = nil
		}
		if err := rs.ReconstructWords(shards); err != nil {
			t.Fatalf("pattern %v: %v", pat, err)
		}
		for i := range shards {
			if !slices.Equal(shards[i], full[i]) {
				t.Fatalf("pattern %v: shard %d wrong", pat, i)
			}
		}
	}
}

func TestRSTooManyErasures(t *testing.T) {
	rs, err := NewRS(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	data := randShards(rng, 4, 16)
	parity, err := rs.EncodeWords(data)
	if err != nil {
		t.Fatal(err)
	}
	shards := append(append([][]uint64{}, data...), parity...)
	shards[0], shards[1], shards[2] = nil, nil, nil
	if err := rs.ReconstructWords(shards); err == nil {
		t.Fatal("repaired more erasures than the code tolerates")
	}
}

func TestRSParams(t *testing.T) {
	if _, err := NewRS(0, 1); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewRS(1, 0); err == nil {
		t.Error("accepted m=0")
	}
	if _, err := NewRS(200, 56); err == nil {
		t.Error("accepted k+m > 255")
	}
	rs, err := NewRS(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.EncodeWords(randShards(rand.New(rand.NewSource(1)), 2, 8)); err == nil {
		t.Error("accepted wrong shard count")
	}
	if _, err := rs.EncodeWords([][]uint64{{1}, {2, 3}, {4}}); err == nil {
		t.Error("accepted ragged shards")
	}
	if err := rs.ReconstructWords(make([][]uint64, 4)); err == nil {
		t.Error("accepted wrong total shard count")
	}
}

func TestRSMatchesXORForM1(t *testing.T) {
	// A k+1 systematic RS code's single parity shard is the plain XOR of
	// the data shards — the paper's checksum (§5.2) — for every group size.
	rng := rand.New(rand.NewSource(6))
	for k := 1; k <= 32; k++ {
		rs, err := NewRS(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		data := randShards(rng, k, 13)
		parity, err := rs.EncodeWords(data)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(parity[0], xorOf(data)) {
			t.Fatalf("k=%d: RS(k,1) parity is not the XOR of the data shards", k)
		}
	}
}

func TestRSProperty(t *testing.T) {
	// Property: encode ∘ erase(m random shards) ∘ reconstruct = identity.
	rng := rand.New(rand.NewSource(7))
	prop := func(kRaw, mRaw, nRaw uint8, seed int64) bool {
		k := int(kRaw)%10 + 1
		m := int(mRaw)%4 + 1
		n := int(nRaw)%100 + 1
		rs, err := NewRS(k, m)
		if err != nil {
			return false
		}
		local := rand.New(rand.NewSource(seed))
		data := randShards(local, k, n)
		parity, err := rs.EncodeWords(data)
		if err != nil {
			return false
		}
		full := append(append([][]uint64{}, data...), parity...)
		shards := slices.Clone(full)
		for _, i := range local.Perm(k + m)[:m] {
			shards[i] = nil
		}
		if err := rs.ReconstructWords(shards); err != nil {
			return false
		}
		for i := range shards {
			if !slices.Equal(shards[i], full[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Error(err)
	}
}
