package video

// Dependency-aware decoding. The queues of internal/packet deliver units in
// significance order, so prefix-based accounting suffices there; this file
// models the general case — an arbitrary subset of units arrived — honoring
// the two dependency rules of hierarchical MGS coding:
//
//  1. Within a frame, MGS layer l decodes only if layers 0..l-1 of the same
//     frame decoded (quality refinement order).
//  2. A frame's base layer decodes only if its reference anchors decoded:
//     the GOP's I frame for everything, plus the nearest preceding anchor
//     (I or P) for P frames, and the surrounding anchors for B frames.

// DecodableBytes returns the payload of g that a decoder can actually use
// when exactly the units for which received returns true have arrived.
func (g GOP) DecodableBytes(received func(NALUnit) bool) int {
	if len(g.Units) == 0 {
		return 0
	}
	frames := 0
	for _, u := range g.Units {
		if u.Frame+1 > frames {
			frames = u.Frame + 1
		}
	}
	// Collect per-frame units by layer.
	byFrame := make([]map[int]NALUnit, frames)
	types := make([]FrameType, frames)
	for i := range byFrame {
		byFrame[i] = make(map[int]NALUnit)
	}
	for _, u := range g.Units {
		byFrame[u.Frame][u.Layer] = u
		types[u.Frame] = u.Type
	}

	// baseOK[f]: the base layer of frame f arrived AND its references
	// decode. Evaluate in display order: anchors only reference earlier
	// anchors, B frames reference surrounding anchors.
	baseOK := make([]bool, frames)
	prevAnchorOK := false
	anchorOf := make([]int, frames) // nearest preceding anchor index
	lastAnchor := -1
	for f := 0; f < frames; f++ {
		if types[f] == IFrame || types[f] == PFrame {
			anchorOf[f] = lastAnchor
			lastAnchor = f
		} else {
			anchorOf[f] = lastAnchor
		}
	}
	nextAnchor := make([]int, frames)
	next := -1
	for f := frames - 1; f >= 0; f-- {
		nextAnchor[f] = next
		if types[f] == IFrame || types[f] == PFrame {
			next = f
		}
	}

	has := func(f, layer int) bool {
		u, ok := byFrame[f][layer]
		return ok && received(u)
	}
	for f := 0; f < frames; f++ {
		switch types[f] {
		case IFrame:
			baseOK[f] = has(f, 0)
			prevAnchorOK = baseOK[f]
		case PFrame:
			baseOK[f] = has(f, 0) && prevAnchorOK
			prevAnchorOK = baseOK[f]
		default: // B frame: needs the preceding anchor; the following one
			// too when it exists inside the GOP.
			ok := has(f, 0)
			if a := anchorOf[f]; a < 0 || !baseOK[a] {
				ok = false
			}
			if a := nextAnchor[f]; a >= 0 {
				// The following anchor decodes iff its own chain does;
				// conservatively require its base unit to have arrived
				// along with every anchor before it.
				if !anchorChainOK(types, byFrame, received, a) {
					ok = false
				}
			}
			baseOK[f] = ok
		}
	}

	total := 0
	for f := 0; f < frames; f++ {
		if !baseOK[f] {
			continue
		}
		total += byFrame[f][0].SizeBytes
		for l := 1; ; l++ {
			if !has(f, l) {
				break
			}
			total += byFrame[f][l].SizeBytes
		}
	}
	return total
}

// anchorChainOK reports whether anchor frame a and every anchor before it
// have their base layers delivered.
func anchorChainOK(types []FrameType, byFrame []map[int]NALUnit,
	received func(NALUnit) bool, a int) bool {
	for f := 0; f <= a; f++ {
		if types[f] != IFrame && types[f] != PFrame {
			continue
		}
		u, ok := byFrame[f][0]
		if !ok || !received(u) {
			return false
		}
	}
	return true
}
