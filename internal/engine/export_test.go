package engine

import "github.com/grapple-system/grapple/internal/storage"

// SetKeyAudit installs f as the dedupe-index audit hook (nil removes it).
func SetKeyAudit(f func(en *Engine, e storage.Edge, k uint64, added bool)) { keyAudit = f }
