#include "workloads/registry.hh"

#include "common/log.hh"
#include "workloads/phase_splice.hh"
#include "workloads/splash.hh"

namespace mnoc::workloads {

const std::vector<std::string> &
splashBenchmarks()
{
    static const std::vector<std::string> names = {
        "barnes",  "radix",    "ocean_c",  "ocean_nc",
        "raytrace", "fft",     "water_s",  "water_ns",
        "cholesky", "lu_cb",   "lu_ncb",   "volrend",
    };
    return names;
}

const std::vector<std::string> &
sampledBenchmarks()
{
    static const std::vector<std::string> names = {
        "lu_cb", "radix", "raytrace", "water_s",
    };
    return names;
}

std::unique_ptr<GeneratedWorkload>
makeWorkload(const std::string &name, const WorkloadScale &scale)
{
    // "splice:a+b[+c...]" concatenates known kernels into one
    // phase-changing run (workloads/phase_splice.hh).
    if (name.rfind("splice:", 0) == 0) {
        std::vector<std::string> phases;
        std::string rest = name.substr(7);
        std::size_t start = 0;
        while (start <= rest.size()) {
            std::size_t plus = rest.find('+', start);
            std::string phase =
                rest.substr(start, plus == std::string::npos
                                       ? std::string::npos
                                       : plus - start);
            if (phase.empty())
                fatal("malformed phase splice (empty phase): " + name);
            phases.push_back(phase);
            if (plus == std::string::npos)
                break;
            start = plus + 1;
        }
        return std::make_unique<PhaseSpliceWorkload>(
            std::move(phases), scale);
    }
    if (name == "barnes")
        return std::make_unique<BarnesWorkload>(scale);
    if (name == "radix")
        return std::make_unique<RadixWorkload>(scale);
    if (name == "ocean_c")
        return std::make_unique<OceanContiguousWorkload>(scale);
    if (name == "ocean_nc")
        return std::make_unique<OceanNonContiguousWorkload>(scale);
    if (name == "raytrace")
        return std::make_unique<RaytraceWorkload>(scale);
    if (name == "fft")
        return std::make_unique<FftWorkload>(scale);
    if (name == "water_s")
        return std::make_unique<WaterSpatialWorkload>(scale);
    if (name == "water_ns")
        return std::make_unique<WaterNSquaredWorkload>(scale);
    if (name == "cholesky")
        return std::make_unique<CholeskyWorkload>(scale);
    if (name == "lu_cb")
        return std::make_unique<LuContiguousWorkload>(scale);
    if (name == "lu_ncb")
        return std::make_unique<LuNonContiguousWorkload>(scale);
    if (name == "volrend")
        return std::make_unique<VolrendWorkload>(scale);
    fatal("unknown benchmark: " + name);
}

} // namespace mnoc::workloads
