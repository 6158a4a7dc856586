#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace caba {

int
defaultWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

void
parallelFor(int n, int jobs, const std::function<void(int)> &fn)
{
    if (n <= 0)
        return;
    if (jobs <= 1 || n == 1) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // Each thread takes the next undispatched index until none is left.
    // The first exception stops dispatch and reaches the caller once
    // every thread has joined.
    std::atomic<int> next{0};
    std::mutex error_mu;
    std::exception_ptr error;
    auto work = [&] {
        try {
            for (int i = next++; i < n; i = next++)
                fn(i);
        } catch (...) {
            next = n;
            std::lock_guard<std::mutex> lock(error_mu);
            if (!error)
                error = std::current_exception();
        }
    };
    {
        const int workers = std::min(jobs, n);
        std::vector<std::jthread> threads;
        threads.reserve(static_cast<std::size_t>(workers));
        for (int t = 0; t < workers; ++t)
            threads.emplace_back(work);
    } // jthreads join here, also when starting one threw
    if (error)
        std::rethrow_exception(error);
}

} // namespace caba
