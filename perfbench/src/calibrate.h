// Host-speed calibration.
//
// The benchmark runs on shared hosts whose speed for allocation-heavy
// code swings by ±30% over seconds to minutes, with the process on the
// CPU the whole time.  So every timed piece of work is preceded by one
// call of a fixed calibration kernel: allocation-heavy node containers
// and integer-to-string formatting, the mix the workloads spend their
// time in.  The kernel's code lives here, not in the program, so a
// change to the program moves the work's time but not the kernel's.
// The ratio of the two tracks the program's cost with the host's speed
// swings divided out (NOTES.md has the measurements).
#pragma once

#include <cstddef>

namespace perfbench {

/// Seconds one kernel call is taken to last: its time on a quiet 2.1 GHz
/// Xeon vCPU.  Calibrated times are expressed in seconds of that host.
inline constexpr double kKernelNominalS = 1.5e-3;

/// Runs the calibration kernel once; returns its wall seconds.
double calibration_kernel_s();

/// `seconds` of work measured next to `kernel_calls` kernel calls that
/// took `kernel_s` in total, rescaled to the nominal host speed.
inline double calibrated_s(double seconds, double kernel_s,
                           std::size_t kernel_calls) {
  return seconds * static_cast<double>(kernel_calls) * kKernelNominalS /
         kernel_s;
}

}  // namespace perfbench
