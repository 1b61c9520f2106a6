// Build provenance stamped into every telemetry export and BENCH_*.json:
// git revision, compiler, flags, and build type, captured at configure
// time by CMake and compiled into obs/build_info.cc only (so editing a
// source file never rebuilds the world). A benchmark number or metrics
// snapshot without this stamp cannot be compared to anything.
#ifndef MSQ_OBS_BUILD_INFO_H_
#define MSQ_OBS_BUILD_INFO_H_

#include <string>
#include <string_view>

namespace msq::obs {

struct BuildInfo {
  std::string_view git_sha;     // git describe --always --dirty; "unknown"
                                // outside git
  std::string_view compiler;    // id + version, e.g. "GNU 13.2.0"
  std::string_view flags;       // CXX flags incl. the sanitizer setting
  std::string_view build_type;  // CMAKE_BUILD_TYPE
};

const BuildInfo& GetBuildInfo();

// The stamp as one JSON object:
// {"git_sha":"...","compiler":"...","flags":"...","build_type":"..."}
std::string BuildInfoJson();

}  // namespace msq::obs

#endif  // MSQ_OBS_BUILD_INFO_H_
