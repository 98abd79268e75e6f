package video_test

import (
	"fmt"

	"femtocr/internal/video"
)

// The rate-quality law of eq. (9) for the Bus sequence.
func ExampleRDModel_PSNR() {
	bus, err := video.SequenceByName("Bus")
	if err != nil {
		panic(err)
	}
	for _, rate := range []float64{0.0, 0.2, 0.4} {
		fmt.Printf("%.1f Mbps -> %.2f dB\n", rate, bus.RD.PSNR(rate))
	}
	// Output:
	// 0.0 Mbps -> 28.60 dB
	// 0.2 Mbps -> 31.76 dB
	// 0.4 Mbps -> 34.92 dB
}

// The per-GOP W-recursion of problem (10): quality accumulates from the
// base layer as video is delivered, and resets at each GOP boundary.
func ExampleProgress() {
	bus, _ := video.SequenceByName("Bus")
	p := video.NewProgress(bus)
	p.AddPSNR(bus.RD.Beta * 0.1) // 0.1 Mbps worth of enhancement
	p.AddPSNR(bus.RD.Beta * 0.1)
	fmt.Printf("mid-GOP W = %.2f dB\n", p.PSNR())
	final := p.EndGOP()
	fmt.Printf("GOP closed at %.2f dB, reset to %.2f dB\n", final, p.PSNR())
	// Output:
	// mid-GOP W = 31.76 dB
	// GOP closed at 31.76 dB, reset to 28.60 dB
}
