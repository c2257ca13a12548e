package groovy

// FuzzSeeds exposes the FuzzParse seed corpus to the external
// front-end digest test.
var FuzzSeeds = fuzzSeeds
