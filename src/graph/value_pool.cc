#include "graph/value_pool.h"

#include "util/logging.h"

namespace recon {

ValueId ValuePool::Intern(ValueDomain domain, std::string_view value) {
  auto& domain_map = by_domain_[DomainKey(domain)];
  auto it = domain_map.find(value);
  if (it != domain_map.end()) return it->second;
  const ValueId id = static_cast<ValueId>(strings_.size());
  strings_.emplace_back(value);
  domains_.push_back(domain);
  domain_map.emplace(std::string(value), id);
  return id;
}

ValueId ValuePool::Find(ValueDomain domain, std::string_view value) const {
  auto domain_it = by_domain_.find(DomainKey(domain));
  if (domain_it == by_domain_.end()) return kInvalidValue;
  auto it = domain_it->second.find(value);
  return it == domain_it->second.end() ? kInvalidValue : it->second;
}

const std::string& ValuePool::StringOf(ValueId id) const {
  RECON_CHECK(id >= 0 && id < size());
  return strings_[id];
}

ValueDomain ValuePool::DomainOf(ValueId id) const {
  RECON_CHECK(id >= 0 && id < size());
  return domains_[id];
}

}  // namespace recon
