// Package server hosts simulated lands over the slp wire protocol: it is
// the stand-in for the Second Life region servers the paper's monitors
// connected to. An EstateServer hosts a multi-region grid on a shared
// warped clock, one region server per cell, hands border-crossing
// avatars between its region servers over the network, and exposes a
// directory endpoint for grid discovery; a single land is hosted as a
// 1×1 estate (world.SingleRegionEstate). Region servers advance the
// world simulation in real time under a configurable time warp, admit
// external avatars (crawlers) and measurement-grade observers, relay
// local chat, answer coarse and full-resolution map requests, push map
// subscriptions, and enforce each land's object-deployment policy for
// sensors.
package server

// ChatRange is the local-chat audibility radius in metres (Second Life's
// "say" range is about 20 m).
const ChatRange = 20.0
