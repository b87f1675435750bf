package exact

import (
	"fmt"

	"repro/internal/gates"
	"repro/internal/ring"
)

// The arbitrary-precision peel loop: Synthesize's steps on BUMat, with no
// coefficient bound. It is the reference the int64 loop is checked
// against below 2^CoeffBits.

// refReducers[j] = H·T^{−j}, as BUMats.
var refReducers = func() [4]BUMat {
	var r [4]BUMat
	tdg := gateBU(gates.Tdg)
	m := gateBU(gates.H)
	for j := 0; j < 4; j++ {
		r[j] = m
		m = m.Mul(tdg) // H·T^{−j} → H·T^{−(j+1)}
	}
	return r
}()

// refIsUnitary checks m·m† = I exactly.
func refIsUnitary(m BUMat) bool {
	d := BUMat{K: m.K}
	d.E[0][0] = m.E[0][0].Conj()
	d.E[0][1] = m.E[1][0].Conj()
	d.E[1][0] = m.E[0][1].Conj()
	d.E[1][1] = m.E[1][1].Conj()
	p := m.Mul(d)
	if p.K != 0 {
		return false
	}
	one := ring.BOmegaFromInt(1)
	return p.E[0][0].Equal(one) && p.E[1][1].Equal(one) &&
		p.E[0][1].IsZero() && p.E[1][0].IsZero()
}

// refSynthesize is Synthesize in big.Int arithmetic.
func refSynthesize(m BUMat, tab *gates.Table) (gates.Sequence, error) {
	if !refIsUnitary(m) {
		return nil, ErrNotUnitary
	}
	var seq gates.Sequence
	w := m
	for iter := 0; ; iter++ {
		if iter > 100000 {
			return nil, ErrStuck
		}
		if w.K <= 4 {
			if u, ok := w.ToUMat(); ok {
				if e, found := tab.Find(u); found {
					return append(seq, e.Sequence()...), nil
				}
			}
		}
		if w.K == 0 {
			return nil, fmt.Errorf("exact: K=0 residual not in table (MaxT=%d)", tab.MaxT)
		}
		reducedAny := false
		for j := 0; j < 4 && !reducedAny; j++ {
			cand := refReducers[j].Mul(w)
			if cand.K < w.K {
				seq = append(seq, prefixFor(j)...)
				w = cand
				reducedAny = true
			}
		}
		if !reducedAny {
		pairs:
			for j1 := 0; j1 < 4; j1++ {
				mid := refReducers[j1].Mul(w)
				if mid.K > w.K {
					continue
				}
				for j2 := 0; j2 < 4; j2++ {
					cand := refReducers[j2].Mul(mid)
					if cand.K < w.K {
						seq = append(seq, prefixFor(j1)...)
						seq = append(seq, prefixFor(j2)...)
						w = cand
						reducedAny = true
						break pairs
					}
				}
			}
		}
		if !reducedAny {
			return nil, ErrStuck
		}
	}
}
