#include "src/dcda/cdm.h"

#include <sstream>

#include "src/common/ids.h"
#include "src/dcda/algebra.h"

namespace adgc {

std::string describe(const CdmMsg& msg) {
  std::ostringstream os;
  os << "CDM " << to_string(msg.detection) << " candidate=" << ref_to_string(msg.candidate)
     << " via=" << ref_to_string(msg.via) << "@" << msg.via_ic << " hops=" << msg.hops << " "
     << algebra_from_msg(msg).to_string();
  return os.str();
}

}  // namespace adgc
