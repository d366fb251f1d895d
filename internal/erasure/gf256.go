// Package erasure implements the erasure code used for group checkpoints:
// a systematic Reed–Solomon code over GF(2⁸) whose first parity row is all
// ones. With one checksum process per group (m=1) it is exactly the XOR
// parity of §5.2 and §6, the RAID5-like scheme; m>1 checksum processes get
// the Reed–Solomon generalization the paper names, with XOR still as the
// first parity.
package erasure

// GF(2⁸) arithmetic with the AES polynomial x⁸+x⁴+x³+x²+1 (0x11d is the
// conventional Rijndael-compatible reducing polynomial used by most RS
// implementations).
const gfPoly = 0x11d

var (
	gfExp [512]byte
	gfLog [256]int
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

// gfDiv divides a by b; b must be non-zero.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[gfLog[a]-gfLog[b]+255]
}

// gfInv returns the multiplicative inverse; a must be non-zero.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfExpPow returns a**n for field element a.
func gfExpPow(a byte, n int) byte {
	if a == 0 {
		if n == 0 {
			return 1
		}
		return 0
	}
	return gfExp[(gfLog[a]*n)%255]
}

// matMul multiplies two GF(256) matrices.
func matMul(a, b [][]byte) [][]byte {
	rows, inner, cols := len(a), len(b), len(b[0])
	out := make([][]byte, rows)
	for i := range out {
		out[i] = make([]byte, cols)
		for j := 0; j < cols; j++ {
			var acc byte
			for k := 0; k < inner; k++ {
				acc ^= gfMul(a[i][k], b[k][j])
			}
			out[i][j] = acc
		}
	}
	return out
}

// matInvert inverts a square GF(256) matrix with Gauss–Jordan elimination.
// It returns false if the matrix is singular.
func matInvert(m [][]byte) ([][]byte, bool) {
	n := len(m)
	// Augment with identity.
	aug := make([][]byte, n)
	for i := range aug {
		aug[i] = make([]byte, 2*n)
		copy(aug[i], m[i])
		aug[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if aug[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		// Scale the pivot row.
		inv := gfInv(aug[col][col])
		for j := 0; j < 2*n; j++ {
			aug[col][j] = gfMul(aug[col][j], inv)
		}
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col || aug[r][col] == 0 {
				continue
			}
			f := aug[r][col]
			for j := 0; j < 2*n; j++ {
				aug[r][j] ^= gfMul(f, aug[col][j])
			}
		}
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = aug[i][n:]
	}
	return out, true
}
