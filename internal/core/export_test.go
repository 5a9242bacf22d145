package core

import "ppm/internal/kernel"

// CompiledG exposes a sub-decode's compiled MatrixFirst program to the
// external core_test package.
func (sd *SubDecode) CompiledG() *kernel.CompiledMatrix { return sd.cG }
