#include "common/output_file.hpp"

#include <fstream>

#include "common/error.hpp"

namespace xl {

void write_file(const std::string& path, const std::string& what,
                const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path, std::ios::binary);
  if (!os.is_open()) throw ContractError("cannot open " + what + ": " + path);
  try {
    write(os);
  } catch (const ContractError&) {
    if (os) throw;
  }
  os.close();
  if (!os) throw ContractError("cannot write " + what + ": " + path);
}

}  // namespace xl
