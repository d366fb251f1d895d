package erasure

import (
	"errors"
	"fmt"
)

// RS is a systematic Reed–Solomon code with k data shards and m parity
// shards over GF(2⁸). Any m lost shards (data or parity) can be
// reconstructed. Its first parity shard is the plain XOR of the data shards
// (§5.2: the checksum process holds the XOR of its members' checkpoints,
// like a RAID-5 disk); further parity shards generalize it to groups that
// must survive m concurrent member crashes (§5: "every group can resist m
// concurrent process crashes").
//
// Shards are []uint64 words, each word eight GF(2⁸) byte lanes, and all
// bulk arithmetic runs through the word-parallel kernels of kernel.go.
type RS struct {
	K int
	M int
	// gen is the (k+m) x k systematic generator matrix: the top k rows are
	// the identity, the bottom m rows produce parity, and row k is all ones.
	gen [][]byte
}

// NewRS constructs a code for k data and m parity shards. k+m must not
// exceed 255 (the field size minus one, so Vandermonde rows stay distinct).
func NewRS(k, m int) (*RS, error) {
	if k < 1 || m < 1 {
		return nil, errors.New("erasure: k and m must be positive")
	}
	if k+m > 255 {
		return nil, fmt.Errorf("erasure: k+m = %d exceeds 255", k+m)
	}
	// Build a (k+m) x k Vandermonde matrix with distinct evaluation points,
	// then normalize the top k x k block to the identity so the code is
	// systematic. Every square submatrix of a Vandermonde matrix with
	// distinct points is invertible, and row reduction preserves that.
	vand := make([][]byte, k+m)
	for r := range vand {
		vand[r] = make([]byte, k)
		for c := 0; c < k; c++ {
			vand[r][c] = gfExpPow(gfExp[r%255], c)
		}
	}
	top := make([][]byte, k)
	for i := range top {
		top[i] = make([]byte, k)
		copy(top[i], vand[i])
	}
	inv, ok := matInvert(top)
	if !ok {
		return nil, errors.New("erasure: Vandermonde top block singular")
	}
	gen := matMul(vand, inv)
	// Scale each column of the parity block by the inverse of its row-0
	// entry, so the first parity row is all ones: RS(k, 1) is the paper's
	// XOR and every RS(k, m) keeps XOR as its first parity. Every k x k
	// minor of the generator only gains a product of nonzero factors, so
	// the code stays MDS (KERNELS.md).
	for j := 0; j < k; j++ {
		s := gfInv(gen[k][j])
		for r := k; r < k+m; r++ {
			gen[r][j] = gfMul(gen[r][j], s)
		}
	}
	return &RS{K: k, M: m, gen: gen}, nil
}

// coef returns the generator coefficient applied to data shard j when
// producing parity shard i.
func (rs *RS) coef(i, j int) byte { return rs.gen[rs.K+i][j] }

func (rs *RS) checkParityIndex(i, j int) error {
	if i < 0 || i >= rs.M {
		return fmt.Errorf("erasure: parity index %d out of range 0..%d", i, rs.M-1)
	}
	if j < 0 || j >= rs.K {
		return fmt.Errorf("erasure: data index %d out of range 0..%d", j, rs.K-1)
	}
	return nil
}

// UpdateParityDeltaWords folds a change of data shard j (old -> new) into
// parity shard i in place: parity ^= coef(i, j)·(old^new), the incremental
// checksum integration of §6.2. The delta is fused into the kernel, so no
// temporary is allocated.
func (rs *RS) UpdateParityDeltaWords(parity []uint64, i, j int, old, new []uint64) error {
	if err := rs.checkParityIndex(i, j); err != nil {
		return err
	}
	if len(parity) != len(old) || len(old) != len(new) {
		return fmt.Errorf("erasure: parity/old/new lengths %d/%d/%d differ",
			len(parity), len(old), len(new))
	}
	c := rs.coef(i, j)
	if !sharded(len(old)) {
		// A checkpoint folds many small ranges: run them inline, without
		// the closure a sharded loop allocates.
		MulDeltaXorWords(c, parity, old, new)
		return nil
	}
	pshardWords(len(old), func(lo, hi int) {
		MulDeltaXorWords(c, parity[lo:hi], old[lo:hi], new[lo:hi])
	})
	return nil
}

// UpdateParityWords folds a precomputed word delta (old XOR new) of data
// shard j into parity shard i in place: parity ^= coef(i, j)·delta. The
// wire-fed parity hosts use it — the member computes the delta once and
// ships it, the host folds it where the parity lives. Bit-identical to
// UpdateParityDeltaWords over the same old/new pair (the code is linear).
func (rs *RS) UpdateParityWords(parity []uint64, i, j int, delta []uint64) error {
	if err := rs.checkParityIndex(i, j); err != nil {
		return err
	}
	if len(parity) != len(delta) {
		return fmt.Errorf("erasure: parity length %d != delta length %d", len(parity), len(delta))
	}
	c := rs.coef(i, j)
	if !sharded(len(delta)) {
		MulSliceXorWords(c, parity, delta) // inline, see UpdateParityDeltaWords
		return nil
	}
	pshardWords(len(delta), func(lo, hi int) {
		MulSliceXorWords(c, parity[lo:hi], delta[lo:hi])
	})
	return nil
}

// AddShardWords folds complete data shard j into parity shard i:
// parity ^= coef(i, j)·data. Used to (re)build a parity shard from shard
// copies without going through a delta (e.g. re-seeding group parity after
// a rollback).
func (rs *RS) AddShardWords(parity []uint64, i, j int, data []uint64) error {
	if err := rs.checkParityIndex(i, j); err != nil {
		return err
	}
	if len(parity) != len(data) {
		return fmt.Errorf("erasure: parity length %d != data length %d", len(parity), len(data))
	}
	c := rs.coef(i, j)
	pshardWords(len(data), func(lo, hi int) {
		MulSliceXorWords(c, parity[lo:hi], data[lo:hi])
	})
	return nil
}

// EncodeWords computes the m parity shards for the k data shards. All data
// shards must have equal, non-zero length.
func (rs *RS) EncodeWords(data [][]uint64) ([][]uint64, error) {
	if len(data) != rs.K {
		return nil, fmt.Errorf("erasure: %d data shards, want %d", len(data), rs.K)
	}
	n := len(data[0])
	if n == 0 {
		return nil, errors.New("erasure: empty shards")
	}
	for i, s := range data {
		if len(s) != n {
			return nil, fmt.Errorf("erasure: shard %d has length %d, want %d", i, len(s), n)
		}
	}
	parity := make([][]uint64, rs.M)
	for p := range parity {
		parity[p] = make([]uint64, n)
	}
	pshardWords(n, func(lo, hi int) {
		for p := 0; p < rs.M; p++ {
			out := parity[p][lo:hi]
			for c := 0; c < rs.K; c++ {
				MulSliceXorWords(rs.coef(p, c), out, data[c][lo:hi])
			}
		}
	})
	return parity, nil
}

// solveMissing picks k surviving generator rows and returns their inverse,
// the decoding matrix: data[c] = sum_i inv[c][i] * shards[rows[i]].
func (rs *RS) solveMissing(present []int) (rows []int, inv [][]byte, err error) {
	rows = present[:rs.K]
	sub := make([][]byte, rs.K)
	for i, r := range rows {
		sub[i] = rs.gen[r]
	}
	inv, ok := matInvert(sub)
	if !ok {
		return nil, nil, errors.New("erasure: surviving-row matrix singular")
	}
	return rows, inv, nil
}

// splitShards partitions shard indices into present and missing (nil) and
// validates counts and lengths; n is the common shard length in words.
func (rs *RS) splitShards(shards [][]uint64) (present, missing []int, n int, err error) {
	if len(shards) != rs.K+rs.M {
		return nil, nil, 0, fmt.Errorf("erasure: %d shards, want %d", len(shards), rs.K+rs.M)
	}
	for i, s := range shards {
		if s == nil {
			missing = append(missing, i)
			continue
		}
		present = append(present, i)
		l := len(s)
		if n == 0 {
			n = l
		} else if l != n {
			return nil, nil, 0, fmt.Errorf("erasure: shard %d has length %d, want %d", i, l, n)
		}
	}
	if len(missing) == 0 {
		return present, missing, n, nil
	}
	if len(missing) > rs.M {
		return nil, nil, 0, fmt.Errorf("erasure: %d shards missing, can repair at most %d", len(missing), rs.M)
	}
	if n == 0 {
		return nil, nil, 0, errors.New("erasure: no surviving shards")
	}
	return present, missing, n, nil
}

// ReconstructWords fills in the missing (nil) shards. shards holds the k
// data shards followed by the m parity shards; at most m entries may be
// nil. Present shards are left untouched; missing ones are replaced with
// freshly allocated reconstructions.
func (rs *RS) ReconstructWords(shards [][]uint64) error {
	present, missing, n, err := rs.splitShards(shards)
	if err != nil || len(missing) == 0 {
		return err
	}
	rows, inv, err := rs.solveMissing(present)
	if err != nil {
		return err
	}
	for _, mi := range missing {
		if mi >= rs.K {
			continue
		}
		out := make([]uint64, n)
		pshardWords(n, func(lo, hi int) {
			for i, r := range rows {
				MulSliceXorWords(inv[mi][i], out[lo:hi], shards[r][lo:hi])
			}
		})
		shards[mi] = out
	}
	for _, mi := range missing {
		if mi < rs.K {
			continue
		}
		out := make([]uint64, n)
		pshardWords(n, func(lo, hi int) {
			for c := 0; c < rs.K; c++ {
				MulSliceXorWords(rs.gen[mi][c], out[lo:hi], shards[c][lo:hi])
			}
		})
		shards[mi] = out
	}
	return nil
}
