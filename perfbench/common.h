#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

/**
 * @file
 * Shared pieces of the benchmark driver: the command-line options,
 * the result every workload returns, order statistics and
 * resident-set measurement.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock readings. */
inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** The steady-clock reading taken while the process initialised. */
Clock::time_point processStart();

/** One run's parameters (see driver.cpp for the flags). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** What a workload hands back to the driver. */
struct RunResult
{
    /** False when any checked output was wrong. */
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Reported by untraced runs, by metric name (units and the full
     *  list live in driver.cpp). */
    std::map<std::string, double> endToEnd;
    /** Reported by traced runs; a metric of a layer the workload does
     *  not use is left out and reported as 0. */
    std::map<std::string, double> perLayer;
};

/** Median; 0 for an empty sample. */
double median(std::vector<double> values);

/** Nearest-rank quantile @p q in [0, 1]; 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

/** Geometric mean of positive values; 0 for an empty sample. */
double geomean(const std::vector<double> &values);

/** Peak resident set of this process so far (VmHWM), in MiB. */
double peakRssMb();

/**
 * Samples the resident set (VmRSS) every few milliseconds on its own
 * thread between start() and stop(), and keeps the largest reading:
 * the peak of one phase, which VmHWM cannot give once an earlier
 * phase has set a higher mark.
 */
class RssSampler
{
  public:
    RssSampler() = default;
    ~RssSampler();
    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    void start();
    /** Stops sampling; returns the peak in MiB. */
    double stop();

  private:
    std::atomic<bool> running_{false};
    std::atomic<long> peakPages_{0};
    std::thread thread_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
