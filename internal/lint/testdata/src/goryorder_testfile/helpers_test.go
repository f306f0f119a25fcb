package vscc

func driveBadOrder(c ctx, s sender) {
	c.WriteMPB(0, 0, 0, buf)
	s.notify(1) // want "SignalSent via vscc.\\(sender\\).notify before FlushWCB of the preceding MPB data write .WriteMPB."
}

func driveLogger(c ctx, l logger) {
	c.WriteMPB(0, 0, 0, buf)
	l.notify(1) // ok: this notify signals nothing
	c.FlushWCB()
}

func driveGoodOrder(c ctx, s sender) {
	c.WriteMPB(0, 0, 0, buf)
	c.FlushWCB()
	s.notify(1)
}
