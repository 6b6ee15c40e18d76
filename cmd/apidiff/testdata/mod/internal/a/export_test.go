package a

// Helper exists only for the external tests, which see it with the package.
var Helper = helper
