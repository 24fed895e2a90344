package mpi

// hasLeft reports whether rank has departed.
func (j *Job) hasLeft(rank int) bool {
	j.leaveMu.Lock()
	defer j.leaveMu.Unlock()
	return j.left[rank]
}
