//go:build !km_purego

package distkm

// workerBuildTags are the build tags the test binary was compiled with that
// change kernel arithmetic (none in this build). Worker binaries the tests
// build get the same tags, so both sides of a two-process fit resolve the
// same float32 tier.
const workerBuildTags = ""
