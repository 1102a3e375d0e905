#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <unistd.h>

namespace perfbench
{

namespace
{

const Clock::time_point kProcessStart = Clock::now();

/** Resident pages from /proc/self/statm; 0 when unreadable. */
long
residentPages()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    long size = 0, resident = 0;
    if (std::fscanf(f, "%ld %ld", &size, &resident) != 2)
        resident = 0;
    std::fclose(f);
    return resident;
}

double
pagesToMb(long pages)
{
    return static_cast<double>(pages) *
           static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

} // namespace

Clock::time_point
processStart()
{
    return kProcessStart;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double logSum = 0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::atol(line + 6);
            break;
        }
    }
    std::fclose(f);
    return static_cast<double>(kb) / 1024.0;
}

RssSampler::~RssSampler()
{
    if (thread_.joinable())
        stop();
}

void
RssSampler::start()
{
    peakPages_ = residentPages();
    running_ = true;
    thread_ = std::thread([this] {
        while (running_.load()) {
            long pages = residentPages();
            if (pages > peakPages_.load())
                peakPages_ = pages;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    });
}

double
RssSampler::stop()
{
    running_ = false;
    if (thread_.joinable())
        thread_.join();
    long pages = residentPages();
    if (pages > peakPages_.load())
        peakPages_ = pages;
    return pagesToMb(peakPages_.load());
}

} // namespace perfbench
