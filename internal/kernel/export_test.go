package kernel

// FileContents returns a filesystem file's contents.
func (k *Kernel) FileContents(path string) ([]byte, bool) {
	c, ok := k.fs[path]
	return c, ok
}

// ClosedByServer reports whether the server closed this connection.
func (cc *ClientConn) ClosedByServer() bool { return cc.c.closedByServer }
