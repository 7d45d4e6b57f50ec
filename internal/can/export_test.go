package can

// BoundaryEps exposes the routing boundary charge to the external
// reference-routing test.
const BoundaryEps = boundaryEps
