package tensor

import "os"

// SIMD backend selection state. The architecture init (gemm_amd64.go)
// fills simdInstall and simdAvailable when the host supports the vector
// kernels; portable-only builds leave both zero so SetSIMD is a no-op.
//
// The SEASTAR_NO_SIMD environment variable force-disables the vector
// kernels at process start (any value but "", "0", "false"), which is
// how CI keeps the portable fallback path built and tested on hosts
// that would otherwise always select the assembly kernels.
var (
	simdAvailable bool
	simdOn        bool
	simdInstall   func(on bool)
)

// simdDisabledByEnv reports whether SEASTAR_NO_SIMD requests the
// portable kernels.
func simdDisabledByEnv() bool {
	switch os.Getenv("SEASTAR_NO_SIMD") {
	case "", "0", "false":
		return false
	}
	return true
}

// SetSIMD swaps between the portable and vector kernel implementations
// and returns the previous state. Enabling is a no-op on hosts without
// vector support. It is a test and benchmark hook — both backends are
// bitwise-equal by construction — and must not be called concurrently
// with running kernels.
func SetSIMD(enable bool) bool {
	prev := simdOn
	if simdInstall == nil || (enable && !simdAvailable) {
		return prev
	}
	simdInstall(enable)
	simdOn = enable
	return prev
}
