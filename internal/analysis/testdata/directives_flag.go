// fixturepath: femtocr/internal/dirfixture

// Malformed directives the meta-check must flag. The want comments share
// the directive lines, so the directive arguments below deliberately absorb
// them; each stays malformed either way.
package fixture

//femtovet:ignore -- reason without analyzers // want "bare femtovet:ignore suppresses nothing"
var a = 1

//femtovet:ignore nosuch -- not a real analyzer // want "names unknown analyzer"
var b = 2

//femtovet:frobnicate x // want "unknown femtovet directive"
var c = 3

// A retired analyzer's annotation is an unknown kind, not a silent no-op.
//
//femtovet:hotpath // want "unknown femtovet directive .hotpath."
func retired() {}

//femtovet:unit dB // want "unknown femtovet directive .unit."
var d = 4.0

//femtovet:owns x // want "must appear in a function's doc comment"
var e = 5

// typoed names a parameter that does not exist.
//
//femtovet:owns nosuchparam // want "is not a parameter or receiver of typoed"
func typoed(buf []float64) { _ = buf }

// nameless gives owns nothing to claim; the want text hides in the reason.
//
//femtovet:owns -- // want "needs a comma-separated parameter list"
func nameless(buf []float64) { _ = buf }

// overlapping claims buf under both contracts. // want "claimed by both femtovet:owns and femtovet:borrows"
//
//femtovet:owns buf
//femtovet:borrows buf
func overlapping(buf []float64) { _ = buf }
