package device

// Trace returns the recorded kernel timeline.
func (d *Device) Trace() []KernelRecord { return d.trace }
