package a

// A is what the nested module's root package imports.
const A = 1
