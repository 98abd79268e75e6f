// fixturepath: femtocr/internal/core

// The suppression mechanism: a well-formed femtovet:ignore directive
// silences the named analyzer on its line and the next; naming a different
// analyzer, or omitting the reason, does not.
package fixture

func comparatorTie(a, b float64) bool {
	return a != b //femtovet:ignore floateq -- fixture: exact tie-break by design
}

func nextLine(a, b float64) bool {
	//femtovet:ignore floateq -- fixture: standalone directive covers the next line
	return a == b
}

func stillFlagged(a, b float64) bool {
	// The directive below names a different analyzer, so floateq still fires.
	return a == b //femtovet:ignore errdrop -- names the wrong analyzer // want "exact floating-point"
}

func reasonless(a, b float64) bool {
	// A reasonless directive is inert: floateq fires despite being named.
	//femtovet:ignore floateq
	return a == b // want "exact floating-point"
}
