//go:build !amd64 || purego

package kernels

import "iatf/internal/vec"

// Without the amd64 kernels (another GOARCH, or the purego build tag)
// every call runs the Go kernels.

func isa() string { return "go" }

func rectAsm[E vec.Float](kind rectKind, pa, pb, c []E, k int, st Strides, vl int, alpha E, ovw bool) bool {
	return false
}

func triAsm[E vec.Float](mul bool, pa, b []E, m, ncols, strideB, vl int) bool { return false }
