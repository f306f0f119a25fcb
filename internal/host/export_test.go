package host

// PoisonFreedRecords makes the task fill every landing record it
// returns to its free list with 0xA5.
func (t *Task) PoisonFreedRecords() { t.poisonFreed = true }
