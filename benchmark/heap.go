package main

// heapFloor is live for the whole process and never touched, so it costs no
// resident memory. It puts a 64 MB floor under the heap: with the few
// megabytes a suite pass keeps alive, the collector would otherwise start a
// cycle every 4 MB of allocation, and how long those cycles take is the least
// repeatable part of a pass on a shared host (README.md, "Run-to-run spread").
var heapFloor = make([]byte, 64<<20)
