// CDM helper: pretty-printing. Its wire size is encoded_size (message.h).
#pragma once

#include <string>

#include "src/net/message.h"

namespace adgc {

/// Human-readable rendering of a CDM (logging, test diagnostics).
std::string describe(const CdmMsg& msg);

}  // namespace adgc
