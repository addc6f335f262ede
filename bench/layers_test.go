package main

import "testing"

// BenchmarkLayers runs the layer microbenchmarks of layers.go under
// `go test`, one sub-benchmark each; from bench/:
//
//	go test -run NONE -bench . -benchmem .
func BenchmarkLayers(b *testing.B) {
	for _, lb := range layerBenches {
		b.Run(lb.name, lb.fn)
	}
}
