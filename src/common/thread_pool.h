/**
 * @file
 * The fan-out that runs independent simulations, the experiment cells,
 * across host cores: parallelFor starts min(jobs, n) threads that take
 * indices from one shared counter, so indices are dispatched in order
 * and a thread that finishes early takes the next one. No futures, no
 * priorities, no work stealing — just enough for coarse-grained,
 * independent jobs.
 */
#ifndef CABA_COMMON_THREAD_POOL_H
#define CABA_COMMON_THREAD_POOL_H

#include <functional>

namespace caba {

/**
 * Worker count for "use the whole machine": hardware_concurrency(), or
 * 1 when the runtime cannot tell.
 */
int defaultWorkers();

/**
 * Runs fn(0..n-1) on min(@p jobs, @p n) threads and returns once every
 * index has been processed; each thread takes the next undispatched
 * index, so dispatch is in index order. With jobs <= 1 (or n <= 1) the
 * calls happen inline on the caller's thread, in index order, and no
 * thread is started. @p fn must be safe to invoke concurrently from
 * multiple threads when jobs > 1. If a call throws, no further index
 * is dispatched and the first exception is rethrown to the caller
 * after every thread has finished, as the serial path would throw it.
 */
void parallelFor(int n, int jobs, const std::function<void(int)> &fn);

} // namespace caba

#endif // CABA_COMMON_THREAD_POOL_H
