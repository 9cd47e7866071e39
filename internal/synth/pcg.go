package synth

// pcg is the flow sampler's generator: PCG-XSH-RR 64/32 seeded through
// splitmix64. Every component-hour seeds a fresh one from its hour hash,
// so construction has to be cheap — two splitmix64 steps — and the value
// lives on the sampler's stack: it is passed by pointer to the draw
// helpers but never boxed or stored.
type pcg struct {
	state uint64
	inc   uint64
}

// splitmix64 is the recommended seed expander for small-state PRNGs: it
// decorrelates consecutive seeds, so the FNV-derived hour seeds (which can
// share long bit prefixes across neighbouring hours) yield independent
// streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newPCG returns a PCG generator whose state and stream are both derived
// from seed via splitmix64.
func newPCG(seed uint64) pcg {
	s := seed
	return pcg{
		state: splitmix64(&s),
		inc:   splitmix64(&s) | 1, // increment must be odd
	}
}

// next32 advances the LCG state and returns the permuted 32-bit output
// (XSH-RR: xorshift high bits, random rotate).
func (p *pcg) next32() uint32 {
	old := p.state
	p.state = old*6364136223846793005 + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// next64 composes two 32-bit outputs.
func (p *pcg) next64() uint64 {
	return uint64(p.next32())<<32 | uint64(p.next32())
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (p *pcg) Float64() float64 {
	return float64(p.next64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method on the 32-bit output (every n the sampler uses fits in
// 32 bits).
func (p *pcg) Intn(n int) int {
	if n <= 0 {
		panic("synth: Intn with non-positive n")
	}
	bound := uint32(n)
	for {
		v := p.next32()
		prod := uint64(v) * uint64(bound)
		if uint32(prod) >= bound || uint32(prod) >= -bound%bound {
			return int(prod >> 32)
		}
	}
}
