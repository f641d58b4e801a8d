#include "fadewich/core/kma.hpp"

#include <limits>
#include <string>
#include <utility>

#include "fadewich/common/error.hpp"

namespace fadewich::core {

KeyboardMouseActivity::KeyboardMouseActivity(std::size_t workstation_count)
    : last_input_(workstation_count,
                  -std::numeric_limits<Seconds>::infinity()) {
  FADEWICH_EXPECTS(workstation_count >= 1);
}

void KeyboardMouseActivity::record_input(std::size_t workstation, Seconds t) {
  FADEWICH_EXPECTS(workstation < last_input_.size());
  if (t > last_input_[workstation]) last_input_[workstation] = t;
}

Seconds KeyboardMouseActivity::idle_time(std::size_t workstation,
                                         Seconds t) const {
  FADEWICH_EXPECTS(workstation < last_input_.size());
  return t - last_input_[workstation];
}

bool KeyboardMouseActivity::idle_for(std::size_t workstation, Seconds t,
                                     Seconds s) const {
  return idle_time(workstation, t) >= s;
}

void KeyboardMouseActivity::restore(std::vector<Seconds> last_inputs) {
  if (last_inputs.size() != last_input_.size()) {
    throw Error("kma state has " + std::to_string(last_inputs.size()) +
                " workstations, deployment has " +
                std::to_string(last_input_.size()));
  }
  last_input_ = std::move(last_inputs);
}

}  // namespace fadewich::core
