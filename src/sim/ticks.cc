#include "sim/ticks.h"

namespace sn40l::sim {

void
tickRangeError(double ticks, const char *what)
{
    char got[32];
    std::snprintf(got, sizeof got, "%g", ticks / kTicksPerSec);
    fatal(std::string(what) + ": " + got +
          " s is outside the simulated horizon (~9.2e6 s, the end of "
          "the Tick range)");
}

void
pastHorizonError(const char *label)
{
    fatal("EventQueue: event '" + std::string(label) +
          "' would run past the simulated horizon (~9.2e6 s, the end "
          "of the Tick range)");
}

} // namespace sn40l::sim
