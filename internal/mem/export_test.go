package mem

// LiveBackingBytes exposes liveBackingBytes to the external lifetime test.
func LiveBackingBytes() int64 { return liveBackingBytes.Load() }
