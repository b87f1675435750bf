package dioph

import (
	"math"
	"math/bits"
)

// The word path's number theory: factoring, primality and square roots
// modulo a prime for moduli below 2^62, multiplying modulo m through
// bits.Mul64 and bits.Div64. Each routine takes the steps its big.Int
// counterpart takes (Factor, rhoBrent, big.Int.ModSqrt), so every
// decision, and hence every answer, is the same.

// wordPower is a prime factor of a word together with its multiplicity.
type wordPower struct {
	p uint64
	e int
}

// wordRoot is a memoized square root modulo a prime; ok is false when
// the square has none.
type wordRoot struct {
	r  uint64
	ok bool
}

// mrBases are the first twelve primes. Miller–Rabin with these bases is
// exact for every n below 3.3·10^24, so isPrime64 decides exactly what
// ProbablyPrime (exact below 2^64) decides.
var mrBases = [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// mulMod returns a·b mod m for a, b < m.
func mulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, r := bits.Div64(hi, lo, m)
	return r
}

// powMod returns b^e mod m for b < m.
func powMod(b, e, m uint64) uint64 {
	r := uint64(1) % m
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = mulMod(r, b, m)
		}
		b = mulMod(b, b, m)
	}
	return r
}

func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// isPrime64 reports whether n is prime: deterministic Miller–Rabin.
func isPrime64(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range mrBases {
		if n%p == 0 {
			return n == p
		}
	}
	d := n - 1
	s := bits.TrailingZeros64(d)
	d >>= uint(s)
	for _, a := range mrBases {
		x := powMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 1; i < s && composite; i++ {
			x = mulMod(x, x, n)
			composite = x != n-1
		}
		if composite {
			return false
		}
	}
	return true
}

// isqrt returns ⌊√n⌋ for n < 2^62.
func isqrt(n uint64) uint64 {
	r := uint64(math.Sqrt(float64(n)))
	for r*r > n {
		r--
	}
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// factorWord is Factor for 0 < n < 2^62: trial division by smallPrimes
// while p² ≤ rem, then recursive splitting of what remains. The result
// (sorted by prime) lives in the Solver until the next call.
func (sv *Solver) factorWord(n uint64) ([]wordPower, bool) {
	sv.powers = sv.powers[:0]
	rem := n
	for _, sp := range smallPrimes {
		p := uint64(sp)
		if p*p > rem {
			break
		}
		for rem%p == 0 {
			rem /= p
			sv.addPower(p)
		}
	}
	if !sv.splitWord(rem) {
		return nil, false
	}
	// Insertion sort: a norm below 2^62 has at most a handful of primes.
	ps := sv.powers
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].p < ps[j-1].p; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	return ps, true
}

func (sv *Solver) addPower(p uint64) {
	for i := range sv.powers {
		if sv.powers[i].p == p {
			sv.powers[i].e++
			return
		}
	}
	sv.powers = append(sv.powers, wordPower{p: p, e: 1})
}

// splitWord is Factor's split: a prime is recorded, a perfect square
// splits into its root twice, anything else goes to rho.
func (sv *Solver) splitWord(m uint64) bool {
	if m == 1 {
		return true
	}
	if isPrime64(m) {
		sv.addPower(m)
		return true
	}
	if r := isqrt(m); r*r == m {
		return sv.splitWord(r) && sv.splitWord(r)
	}
	d, ok := rhoWord(m)
	if !ok {
		return false
	}
	return sv.splitWord(d) && sv.splitWord(m/d)
}

// rhoWord is rhoBrent on a word: the same c = 1…31, y₀ = 2, doubling
// runs, batches of 128 products per gcd, the single-step backtrack and
// the maxRhoIter budget, so it finds the same factor or fails alike.
func rhoWord(m uint64) (uint64, bool) {
	const batch = 128
	for c := uint64(1); c < 32; c++ {
		step := func(y uint64) uint64 { return (mulMod(y, y, m) + c) % m }
		y, g, q := uint64(2), uint64(1), uint64(1)
		var x, ys uint64
		r, iter := 1, 0
		for g == 1 && iter < maxRhoIter {
			x = y
			for i := 0; i < r; i++ {
				y = step(y)
			}
			for k := 0; k < r && g == 1 && iter < maxRhoIter; k += batch {
				ys = y
				for i := 0; i < min(batch, r-k); i++ {
					y = step(y)
					q = mulMod(q, absDiff(x, y), m)
					iter++
				}
				g = gcd64(q, m)
			}
			r *= 2
		}
		if g == m {
			for g = 1; g == 1; {
				ys = step(ys)
				g = gcd64(absDiff(x, ys), m)
				iter++
				if iter > maxRhoIter {
					break
				}
			}
		}
		if g > 1 && g < m {
			return g, true
		}
	}
	return 0, false
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// jacobi returns the Jacobi symbol (a/n) for odd n.
func jacobi(a, n uint64) int {
	a %= n
	j := 1
	for a != 0 {
		for a%2 == 0 {
			a /= 2
			if r := n % 8; r == 3 || r == 5 {
				j = -j
			}
		}
		a, n = n, a
		if a%4 == 3 && n%4 == 3 {
			j = -j
		}
		a %= n
	}
	if n == 1 {
		return j
	}
	return 0
}

// rootMod is modSqrt on a word prime p: the root of square (2, −1 or −2)
// mod p that big.Int.ModSqrt returns, memoized per prime for the life of
// the Solver.
func (sv *Solver) rootMod(square int64, p uint64) (uint64, bool) {
	k := sqrtKey{square: int8(square), p: int64(p)}
	if w, ok := sv.roots[k]; ok {
		return w.r, w.ok
	}
	var x uint64 // square mod p, in [0, p)
	if square >= 0 {
		x = uint64(square) % p
	} else if x = uint64(-square) % p; x != 0 {
		x = p - x
	}
	r, ok := sqrtMod(x, p)
	sv.roots[k] = wordRoot{r: r, ok: ok}
	return r, ok
}

// sqrtMod returns the square root of x < p modulo the odd prime p that
// big.Int.ModSqrt returns: x^((p+1)/4) for p ≡ 3 (mod 4), Atkin's formula
// for p ≡ 5 (mod 8), and otherwise Tonelli–Shanks with the least
// non-residue n ≥ 2. ok is false when x is not a square.
func sqrtMod(x, p uint64) (uint64, bool) {
	switch jacobi(x, p) {
	case -1:
		return 0, false
	case 0:
		return 0, true
	}
	switch {
	case p%4 == 3:
		return powMod(x, (p+1)/4, p), true
	case p%8 == 5:
		tx := 2 * x % p
		alpha := powMod(tx, p>>3, p)
		beta := mulMod(mulMod(alpha, alpha, p), tx, p)
		beta = (beta + p - 1) % p
		return mulMod(mulMod(beta, x, p), alpha, p), true
	}
	s := p - 1
	e := uint(bits.TrailingZeros64(s))
	s >>= e
	n := uint64(2)
	for jacobi(n, p) != -1 {
		n++
	}
	y := powMod(x, (s+1)/2, p)
	b := powMod(x, s, p)
	g := powMod(n, s, p)
	r := e
	for {
		var m uint
		for t := b; t != 1; t = mulMod(t, t, p) {
			m++
		}
		if m == 0 {
			return y, true
		}
		t := g
		for i := uint(0); i < r-m-1; i++ {
			t = mulMod(t, t, p)
		}
		g = mulMod(t, t, p)
		y = mulMod(y, t, p)
		b = mulMod(b, g, p)
		r = m
	}
}
