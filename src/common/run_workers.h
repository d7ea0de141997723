#ifndef CLOUDSURV_COMMON_RUN_WORKERS_H_
#define CLOUDSURV_COMMON_RUN_WORKERS_H_

#include <thread>
#include <vector>

namespace cloudsurv {

/// Runs fn(w) for every w in [0, workers) and returns when all have
/// finished. Worker 0 runs on the calling thread and the others on
/// threads started for this call, so one worker starts no thread.
/// Callers that need a result independent of the worker count hand out
/// work by index (an atomic counter or fixed blocks), never by the
/// order the workers happen to run in.
template <typename Fn>
void RunWorkers(unsigned workers, const Fn& fn) {
  std::vector<std::thread> threads;
  if (workers > 1) threads.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) threads.emplace_back(fn, w);
  fn(0u);
  for (auto& th : threads) th.join();
}

}  // namespace cloudsurv

#endif  // CLOUDSURV_COMMON_RUN_WORKERS_H_
