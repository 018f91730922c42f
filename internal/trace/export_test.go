package trace

// ApplyEvent lets the external tests build a detector sized up front and
// drive it with the same event mapping LiveReplay uses.
var ApplyEvent = applyEvent
