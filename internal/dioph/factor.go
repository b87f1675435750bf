package dioph

import (
	"math/big"
	"sort"
)

// PrimePower is a prime together with its multiplicity.
type PrimePower struct {
	P *big.Int
	E int
}

var smallPrimes = sievePrimes(1 << 14)

func sievePrimes(n int) []int64 {
	sieve := make([]bool, n)
	var out []int64
	for i := 2; i < n; i++ {
		if sieve[i] {
			continue
		}
		out = append(out, int64(i))
		for j := i * i; j < n; j += i {
			sieve[j] = true
		}
	}
	return out
}

// Factor returns the prime factorization of n > 0 (sorted by prime), or
// ok=false when the rho budget is exhausted on a hard composite.
func Factor(n *big.Int) ([]PrimePower, bool) {
	if n.Sign() <= 0 {
		return nil, false
	}
	counts := map[string]*PrimePower{}
	add := func(p *big.Int, e int) {
		k := p.String()
		if pp, ok := counts[k]; ok {
			pp.E += e
		} else {
			counts[k] = &PrimePower{P: new(big.Int).Set(p), E: e}
		}
	}
	rem := new(big.Int).Set(n)
	for _, sp := range smallPrimes {
		p := big.NewInt(sp)
		if new(big.Int).Mul(p, p).Cmp(rem) > 0 {
			break
		}
		for {
			q, r := new(big.Int).QuoRem(rem, p, new(big.Int))
			if r.Sign() != 0 {
				break
			}
			rem = q
			add(p, 1)
		}
	}
	// Recursive rho on what remains.
	var split func(m *big.Int) bool
	split = func(m *big.Int) bool {
		if m.Cmp(big.NewInt(1)) == 0 {
			return true
		}
		if m.ProbablyPrime(24) {
			add(m, 1)
			return true
		}
		// Perfect square fast path (common for norms).
		sq := new(big.Int).Sqrt(m)
		if new(big.Int).Mul(sq, sq).Cmp(m) == 0 {
			return split(sq) && split(sq)
		}
		d, ok := rhoBrent(m)
		if !ok {
			return false
		}
		q := new(big.Int).Quo(m, d)
		return split(d) && split(q)
	}
	if !split(rem) {
		return nil, false
	}
	out := make([]PrimePower, 0, len(counts))
	for _, pp := range counts {
		out = append(out, *pp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P.Cmp(out[j].P) < 0 })
	return out, true
}

// rhoBrent finds a nontrivial factor of an odd composite m using Brent's
// cycle variant of Pollard rho with batched gcds, within maxRhoIter steps.
func rhoBrent(m *big.Int) (*big.Int, bool) {
	one := big.NewInt(1)
	for c := int64(1); c < 32; c++ {
		cBig := big.NewInt(c)
		y := big.NewInt(2)
		g := new(big.Int).Set(one)
		q := new(big.Int).Set(one)
		var x, ys *big.Int
		r := 1
		iter := 0
		const batch = 128
		for g.Cmp(one) == 0 && iter < maxRhoIter {
			x = new(big.Int).Set(y)
			for i := 0; i < r; i++ {
				y.Mul(y, y)
				y.Add(y, cBig)
				y.Mod(y, m)
			}
			for k := 0; k < r && g.Cmp(one) == 0 && iter < maxRhoIter; k += batch {
				ys = new(big.Int).Set(y)
				lim := batch
				if r-k < lim {
					lim = r - k
				}
				for i := 0; i < lim; i++ {
					y.Mul(y, y)
					y.Add(y, cBig)
					y.Mod(y, m)
					diff := new(big.Int).Sub(x, y)
					diff.Abs(diff)
					q.Mul(q, diff)
					q.Mod(q, m)
					iter++
				}
				g.GCD(nil, nil, q, m)
			}
			r *= 2
		}
		if g.Cmp(m) == 0 {
			// Backtrack one step at a time.
			g.Set(one)
			for g.Cmp(one) == 0 {
				ys.Mul(ys, ys)
				ys.Add(ys, cBig)
				ys.Mod(ys, m)
				diff := new(big.Int).Sub(x, ys)
				diff.Abs(diff)
				g.GCD(nil, nil, diff, m)
				iter++
				if iter > maxRhoIter {
					break
				}
			}
		}
		if g.Cmp(one) > 0 && g.Cmp(m) < 0 {
			return g, true
		}
	}
	return nil, false
}
