package system

// DrawConfig exposes the property tests' configuration sampler to the
// external test package.
var DrawConfig = drawConfig
