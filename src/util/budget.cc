#include "util/budget.h"

namespace recon {

const char* StopReasonToString(StopReason reason) {
  switch (reason) {
    case StopReason::kConverged:
      return "converged";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kIterationBudget:
      return "iteration-budget";
    case StopReason::kMergeBudget:
      return "merge-budget";
    case StopReason::kMemoryBudget:
      return "memory-budget";
  }
  return "unknown";
}

const char* ProbePointToString(ProbePoint point) {
  switch (point) {
    case ProbePoint::kCandidates:
      return "candidates";
    case ProbePoint::kBuild:
      return "build";
    case ProbePoint::kSolveRound:
      return "solve-round";
    case ProbePoint::kSolveCommit:
      return "solve-commit";
  }
  return "unknown";
}

}  // namespace recon
