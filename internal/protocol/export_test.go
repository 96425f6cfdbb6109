package protocol

// ServeListener exposes serve to the external tests, which wrap the
// listener to observe the server's socket writes.
var ServeListener = serve
