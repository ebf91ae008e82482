// The benchmark's workloads. Each measures for about args.seconds, checks every output it
// produced, and fills the end-to-end metrics (always) and the per-layer metrics (traced
// runs). See perfbench/NOTES.md for what each one stresses and why it was chosen.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/common.h"

namespace perfbench {

Result RunExchange(const Args& args);
Result RunStream(const Args& args);
Result RunIterate(const Args& args);
Result RunRecover(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
