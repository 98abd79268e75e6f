// fixturepath: femtocr/internal/aliasfixtureclean

// Contracts the analyzer must accept: borrowed buffers used only for the
// duration of the call, an owned buffer that transfers back to the caller
// (the AppendAvailable pattern), unexported helpers outside the coverage
// rule, and exported functions that are not part of the *Into surface.
package fixture

// ScaleInto writes 2*src into dst and keeps neither.
//
//femtovet:borrows dst, src
func ScaleInto(dst, src []float64) {
	for i := range src {
		dst[i] = 2 * src[i]
	}
}

// GrowInto owns buf: the returned slice is rooted in the caller's buffer.
//
//femtovet:owns buf
func GrowInto(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// SumInto mixes value parameters (no annotation needed) with a borrowed one.
//
//femtovet:borrows out
func SumInto(out []float64, scale float64) {
	for i := range out {
		out[i] *= scale
	}
}

// fillInto is unexported: outside the coverage rule.
func fillInto(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// Checksum is exported but not an *Into function: no annotation required.
func Checksum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

type snapshot struct{ prices []float64 }

// CaptureInto copies the borrowed prices into its receiver: append's
// spread operand is copied element by element, and float64 elements hold
// no references, so only the fresh slice outlives the call.
//
//femtovet:borrows src
func (s *snapshot) CaptureInto(src []float64) {
	s.prices = append([]float64(nil), src...)
}
