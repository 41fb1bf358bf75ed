// Error types shared by every mcfpga module.
//
// The library reports contract violations (bad arguments, inconsistent
// programming, unroutable designs) with exceptions derived from
// mcfpga::Error so callers can distinguish library failures from std::
// failures.  MCFPGA_REQUIRE is the standard argument-checking macro: it is
// always on (never compiled out) because the checks guard user-facing API
// boundaries, not inner loops.
#pragma once

#include <stdexcept>
#include <string>

namespace mcfpga {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// An API precondition was violated (bad argument, out-of-range index, ...).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A fabric resource was programmed inconsistently (double-driven wire,
/// decoder output conflict, plane out of range, ...).
class ProgrammingError : public Error {
 public:
  explicit ProgrammingError(const std::string& what) : Error(what) {}
};

/// The CAD flow could not complete (unplaceable, unroutable, over capacity).
class FlowError : public Error {
 public:
  explicit FlowError(const std::string& what) : Error(what) {}
};

/// A compile was abandoned on purpose: a core::StageObserver returned false
/// from on_stage_start.  Deliberately NOT a FlowError: callers that treat
/// FlowError as "the design is infeasible" must not confuse it with "the
/// caller asked us to stop".
class FlowCancelled : public Error {
 public:
  explicit FlowCancelled(const std::string& what) : Error(what) {}
};

}  // namespace mcfpga

/// Precondition check that throws mcfpga::InvalidArgument with location info.
#define MCFPGA_REQUIRE(cond, msg)                                          \
  do {                                                                     \
    if (!(cond)) {                                                         \
      throw ::mcfpga::InvalidArgument(std::string(__func__) + ": " +       \
                                      std::string(msg) + " [" #cond "]");  \
    }                                                                      \
  } while (0)

/// Internal-consistency check that throws mcfpga::ProgrammingError.
#define MCFPGA_CHECK(cond, msg)                                            \
  do {                                                                     \
    if (!(cond)) {                                                         \
      throw ::mcfpga::ProgrammingError(std::string(__func__) + ": " +      \
                                       std::string(msg) + " [" #cond "]"); \
    }                                                                      \
  } while (0)
