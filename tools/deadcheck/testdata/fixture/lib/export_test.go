package lib

// Exposed hands the external test an unexported function.
var Exposed = exposed
