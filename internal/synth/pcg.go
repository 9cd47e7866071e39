package synth

import "math/bits"

// pcg is the flow sampler's generator: PCG-XSH-RR 64/32 seeded through
// splitmix64. Every component-hour seeds a fresh one from its hour hash,
// so construction has to be cheap — two splitmix64 steps. The sampler
// copies the two words into locals and advances them with step, by value:
// nothing takes the generator's address, so for a chunk of rows its state
// lives in a register.
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

// step advances the LCG state and returns it with the permuted 32-bit
// output of the state it was given (XSH-RR: xorshift high bits, random
// rotate). Small enough to inline at every draw.
func step(state, inc uint64) (uint64, uint32) {
	return state*6364136223846793005 + inc, bits.RotateLeft32(uint32((state>>18^state)>>27), -int(state>>59))
}

// redraw finishes a bounded draw. Lemire's multiply-shift rejection method
// takes prod = v × bound for one 32-bit output v, returns prod >> 32 and
// redoes the draw when the low half of prod is below 2^32 mod bound. That
// remainder is itself below bound, so the sampler tests `uint32(prod) <
// bound` inline — true for about bound in 2^32 draws — and leaves the
// remainder's division and the redraws to this function, which takes and
// returns the generator state by value, like step.
func redraw(state, inc, prod uint64, bound uint32) (uint64, uint64) {
	for reject := -bound % bound; uint32(prod) < reject; {
		var v uint32
		state, v = step(state, inc)
		prod = uint64(v) * uint64(bound)
	}
	return state, prod
}
